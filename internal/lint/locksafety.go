package lint

import (
	"go/ast"
	"go/types"
)

// LockSafety enforces the Tracker doc contract: the lock-free hot-path
// queue state, qstate.State, is a single-goroutine value; any code that
// runs on (or shares state with) a spawned goroutine must use a
// mutex-guarded counterpart (qstate.Tracker, hints.Tracker). The engine's
// estimators need no check: they are unexported, owned by one
// engine.Endpoint and updated only by its Tick.
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
	Doc:  "forbid lock-free queue state (qstate.State) in goroutine-spawning contexts",
	Run:  runLockSafety,
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
		if !typeIs(p.TypesInfo.TypeOf(recv), qstatePath, "State") {
			return true
		}
		root := rootObj(p.TypesInfo, recv)
		switch {
		case inGoLit(call) != nil:
			if root != nil && declaredWithin(root, inGoLit(call).Body) {
				return true // goroutine-local value
			}
			p.Reportf(call.Pos(),
				"lock-free State.%s called from a spawned goroutine; use qstate.Tracker",
				fn.Name())
		case isGoTarget:
			if root != nil && declaredWithin(root, body) {
				return true
			}
			p.Reportf(call.Pos(),
				"lock-free State.%s in %s, which runs as a goroutine (`go %s(...)` elsewhere in this package); use qstate.Tracker",
				fn.Name(), fd.Name.Name, fd.Name.Name)
		case root != nil && captured[root]:
			p.Reportf(call.Pos(),
				"lock-free State.%s on %s, which a goroutine spawned in %s also captures; use qstate.Tracker",
				fn.Name(), renderExpr(recv), fd.Name.Name)
		}
		return true
	})
}
