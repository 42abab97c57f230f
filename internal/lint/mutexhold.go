package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// mutexPackages are the packages whose internal mutexes sit on the
// measurement hot path: every Track/Update/Observe serializes on them, so a
// blocking call made while one is held stalls every connection's
// instrumentation at once — precisely the estimator-perturbs-the-system
// effect the paper's methodology is built to avoid.
var mutexPackages = []string{qstatePath, policyPath}

// MutexHold flags blocking operations — socket/file I/O, time.Sleep,
// fmt/log printing, channel sends and receives — executed while a
// sync.Mutex in qstate or policy is held. The held region is tracked
// lexically per block: from x.mu.Lock() to the matching x.mu.Unlock(), or to
// the end of the function when the unlock is deferred. Function literals are
// not entered (a closure built under the lock runs later, off the critical
// section) except when invoked immediately.
var MutexHold = &Analyzer{
	Name: "mutexhold",
	Doc:  "forbid blocking calls while a qstate/policy mutex is held",
	Run:  runMutexHold,
}

func runMutexHold(p *Pass) {
	if !pathIsOneOf(p.Pkg.Path(), mutexPackages...) {
		return
	}
	for _, fd := range funcDecls(p) {
		checkMutexBlock(p, fd.Body.List, map[string]bool{})
	}
}

// checkMutexBlock scans one statement list, threading the set of held mutex
// keys through it; nested control-flow bodies are scanned with a copy, so a
// Lock inside an if-branch does not leak into the statements after it.
func checkMutexBlock(p *Pass, stmts []ast.Stmt, held map[string]bool) {
	held = copyKeys(held)
	for _, stmt := range stmts {
		for {
			ls, ok := stmt.(*ast.LabeledStmt)
			if !ok {
				break
			}
			stmt = ls.Stmt
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, isLock, ok := mutexOp(p.TypesInfo, s.X); ok {
				if isLock {
					held[key] = true
				} else {
					delete(held, key)
				}
				continue
			}
		case *ast.DeferStmt:
			if _, isLock, ok := mutexOp(p.TypesInfo, s.Call); ok && !isLock {
				continue // deferred unlock: held until return, keep scanning
			}
		}
		if len(held) > 0 {
			reportBlocking(p, stmt, held)
		}
		// Recurse into control-flow bodies so Lock/Unlock inside them are
		// tracked with their own scope.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			checkMutexBlock(p, s.List, held)
		case *ast.IfStmt:
			for s != nil {
				checkMutexBlock(p, s.Body.List, held)
				switch els := s.Else.(type) {
				case *ast.BlockStmt:
					checkMutexBlock(p, els.List, held)
					s = nil
				case *ast.IfStmt:
					s = els
				default:
					s = nil
				}
			}
		case *ast.ForStmt:
			checkMutexBlock(p, s.Body.List, held)
		case *ast.RangeStmt:
			checkMutexBlock(p, s.Body.List, held)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkMutexBlock(p, cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkMutexBlock(p, cc.Body, held)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkMutexBlock(p, cc.Body, held)
				}
			}
		}
	}
}

// reportBlocking flags blocking operations directly inside stmt (not inside
// nested blocks, which the caller recurses into, and not inside function
// literals, which run later).
func reportBlocking(p *Pass, stmt ast.Stmt, held map[string]bool) {
	var heldNames []string
	for k := range held {
		heldNames = append(heldNames, strings.SplitN(k, "\x00", 2)[1])
	}
	lock := heldNames[0]
	for _, n := range heldNames[1:] {
		if n < lock {
			lock = n
		}
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			// Bodies of nested control flow are handled by checkMutexBlock.
			return false
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			p.Reportf(x.Pos(), "channel send while mutex %s is held; it can block every caller of this package", lock)
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				p.Reportf(x.Pos(), "channel receive while mutex %s is held; it can block every caller of this package", lock)
			}
		case *ast.CallExpr:
			if name, ok := blockingCall(p.TypesInfo, x); ok {
				p.Reportf(x.Pos(), "blocking call to %s while mutex %s is held; move it off the critical section", name, lock)
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock() / x.Unlock() on a sync.Mutex or sync.RWMutex
// (including RLock/RUnlock), returning a key identifying the mutex value.
func mutexOp(info *types.Info, e ast.Expr) (key string, isLock, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	recv, fn := methodRecv(info, call)
	if fn == nil {
		return "", false, false
	}
	if !typeIs(info.TypeOf(recv), "sync", "Mutex") && !typeIs(info.TypeOf(recv), "sync", "RWMutex") {
		return "", false, false
	}
	k := exprKey(info, recv)
	if k == "" {
		return "", false, false
	}
	k += "\x00" + renderExpr(recv)
	switch fn.Name() {
	case "Lock", "RLock":
		return k, true, true
	case "Unlock", "RUnlock":
		return k, false, true
	}
	return "", false, false
}

// blockingPkgs are packages whose calls perform (or can perform) I/O or
// unbounded waits.
var blockingPkgs = map[string]bool{
	"net": true, "os": true, "os/exec": true, "io": true, "bufio": true,
	"net/http": true, "log": true, "syscall": true,
}

// blockingCall reports whether call invokes a blocking operation: anything
// from blockingPkgs, fmt's writer/stdout family, or time.Sleep.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	path, name := obj.Pkg().Path(), obj.Name()
	full := path + "." + name
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		full = path + " method " + name
	}
	switch {
	case blockingPkgs[path]:
		return full, true
	case path == "time" && name == "Sleep":
		return "time.Sleep", true
	case path == "fmt" && (strings.HasPrefix(name, "Print") ||
		strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Scan")):
		return full, true
	}
	return "", false
}

func copyKeys(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
