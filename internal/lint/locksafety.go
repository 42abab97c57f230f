package lint

import (
	"go/ast"
	"go/types"
)

// LockSafety enforces the Tracker doc contract from PR 1: the lock-free
// hot-path types — qstate.State and core.Estimator — are single-goroutine
// values; any code that runs on (or shares state with) a spawned goroutine
// must use a mutex-guarded counterpart (qstate.Tracker, hints.Tracker) or
// keep one estimator per goroutine, as engine.Endpoint does.
//
// Three concurrency contexts are checked, all resolved statically within
// the package:
//
//  1. method calls on a lock-free value inside a `go func() { ... }` body,
//     unless the value is declared inside that body (goroutine-local);
//  2. method calls inside a named function or method that is the direct
//     target of a go statement anywhere in the package (`go c.readLoop()`),
//     unless the value is local to that function;
//  3. method calls on a value that is *also* captured by a go literal in the
//     same function — the value crosses the goroutine boundary, so every
//     unsynchronized use of it is a potential race.
//
// The analysis is deliberately conservative: values passed into goroutines
// through channels or struct fields across packages are not tracked. It
// exists to catch the mistake -race only catches when a test happens to
// interleave.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc:  "forbid lock-free estimator state in goroutine-spawning contexts",
	Run:  runLockSafety,
}

// lockFreeTypes maps each single-goroutine type to its safe replacement.
var lockFreeTypes = []struct {
	pkg, name, safe string
}{
	{qstatePath, "State", "qstate.Tracker"},
	{corePath, "Estimator", "one estimator per goroutine, owned by an engine.Endpoint"},
}

func lockFreeType(t types.Type) (string, string, bool) {
	for _, lf := range lockFreeTypes {
		if typeIs(t, lf.pkg, lf.name) {
			return lf.name, lf.safe, true
		}
	}
	return "", "", false
}

func runLockSafety(p *Pass) {
	// Pass 1: functions/methods in this package that are direct go targets.
	goTargets := map[types.Object]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if obj := calleeObj(p.TypesInfo, gs.Call); obj != nil {
				goTargets[obj] = true
			}
			return true
		})
	}

	for _, fd := range funcDecls(p) {
		isGoTarget := goTargets[p.TypesInfo.Defs[fd.Name]]
		checkLockSafetyFunc(p, fd, isGoTarget)
	}
}

func checkLockSafetyFunc(p *Pass, fd *ast.FuncDecl, isGoTarget bool) {
	body := fd.Body

	// Go-literal bodies spawned within this function, and the set of outside
	// objects each captures.
	var goLits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				goLits = append(goLits, lit)
			}
		}
		return true
	})
	inGoLit := func(pos ast.Node) *ast.FuncLit {
		for _, lit := range goLits {
			if pos.Pos() >= lit.Body.Pos() && pos.End() <= lit.Body.End() {
				return lit
			}
		}
		return nil
	}

	// Objects captured by some go literal: used inside one, declared outside.
	captured := map[types.Object]bool{}
	for _, lit := range goLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.TypesInfo.Uses[id]
			if obj != nil && !declaredWithin(obj, lit.Body) {
				captured[obj] = true
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, fn := methodRecv(p.TypesInfo, call)
		if fn == nil {
			return true
		}
		name, safe, ok := lockFreeType(p.TypesInfo.TypeOf(recv))
		if !ok {
			return true
		}
		root := rootObj(p.TypesInfo, recv)
		switch {
		case inGoLit(call) != nil:
			if root != nil && declaredWithin(root, inGoLit(call).Body) {
				return true // goroutine-local value
			}
			p.Reportf(call.Pos(),
				"lock-free %s.%s called from a spawned goroutine; use %s",
				name, fn.Name(), safe)
		case isGoTarget:
			if root != nil && declaredWithin(root, body) {
				return true
			}
			p.Reportf(call.Pos(),
				"lock-free %s.%s in %s, which runs as a goroutine (`go %s(...)` elsewhere in this package); use %s",
				name, fn.Name(), fd.Name.Name, fd.Name.Name, safe)
		case root != nil && captured[root]:
			p.Reportf(call.Pos(),
				"lock-free %s.%s on %s, which a goroutine spawned in %s also captures; use %s",
				name, fn.Name(), renderExpr(recv), fd.Name.Name, safe)
		}
		return true
	})
}
