package lint

import (
	"go/ast"
	"go/types"
)

// perConnPackages are the packages whose connection scheduling must live on
// the shard timer wheels: the real-socket path and the shard engine itself.
// Elsewhere (sim, figures, cmd, tests) runtime timers are out of scope.
var perConnPackages = []string{
	"e2ebatch/internal/realtcp",
	"e2ebatch/internal/shard",
}

// PerTickerConn guards the shared-nothing shard rearchitecture (DESIGN.md
// §15): one runtime ticker per *shard*, never per connection. Before it, the
// real-socket path spawned a ticker goroutine per endpoint — one goroutine
// plus one runtime timer per connection, which topples far below the
// 50k-connection target and is exactly the leak PR 9 removed from
// realtcp's engine port.
//
// Two rules, both limited to perConnPackages:
//
//  1. the runtime timer constructors — time.NewTicker, time.NewTimer,
//     time.Tick, time.AfterFunc — are flagged anywhere: per-connection or
//     not, recurring schedules in these packages belong on shard.Wheel
//     (engine ticks as wheel Timers). The single legitimate ticker — the
//     one driving each shard's loop — carries the //lint:ignore hatch with
//     its justification;
//  2. the blocking waits — time.Sleep, time.After — are flagged only inside
//     spawned-goroutine contexts (a `go func(){...}` body, or a function
//     that is a go-statement target elsewhere in the package), the
//     per-connection handler shape. A caller-side wait, such as Fleet.Run's
//     drain, legitimately sleeps.
var PerTickerConn = &Analyzer{
	Name: "pertickerconn",
	Doc:  "forbid per-connection runtime timers in shard-scheduled packages",
	Run:  runPerTickerConn,
}

// perConnTimerFns are banned outright in scope; perConnWaitFns only on
// spawned goroutines.
var perConnTimerFns = []string{"NewTicker", "NewTimer", "Tick", "AfterFunc"}
var perConnWaitFns = []string{"Sleep", "After"}

func runPerTickerConn(p *Pass) {
	if !pathIsOneOf(p.Pkg.Path(), perConnPackages...) {
		return
	}
	// Pass 1: named functions that are direct go-statement targets anywhere
	// in the package (`go c.readLoop()`), same resolution as locksafety.
	goTargets := map[types.Object]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				if obj := calleeObj(p.TypesInfo, gs.Call); obj != nil {
					goTargets[obj] = true
				}
			}
			return true
		})
	}
	for _, fd := range funcDecls(p) {
		checkPerTickerFunc(p, fd, goTargets[p.TypesInfo.Defs[fd.Name]])
	}
}

func checkPerTickerFunc(p *Pass, fd *ast.FuncDecl, isGoTarget bool) {
	// Go-literal bodies spawned within this function.
	var goLits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				goLits = append(goLits, lit)
			}
		}
		return true
	})
	inGoLit := func(n ast.Node) bool {
		for _, lit := range goLits {
			if n.Pos() >= lit.Body.Pos() && n.End() <= lit.Body.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(p.TypesInfo, call)
		for _, name := range perConnTimerFns {
			if objIs(obj, "time", name) {
				p.Reportf(call.Pos(),
					"time.%s in %s: per-connection timers belong on the shard wheel (shard.Wheel), one runtime ticker per shard",
					name, fd.Name.Name)
			}
		}
		for _, name := range perConnWaitFns {
			if !objIs(obj, "time", name) {
				continue
			}
			switch {
			case inGoLit(call):
				p.Reportf(call.Pos(),
					"time.%s on a goroutine spawned in %s: per-connection waits belong on the shard wheel, not a parked goroutine",
					name, fd.Name.Name)
			case isGoTarget:
				p.Reportf(call.Pos(),
					"time.%s in %s, which runs as a goroutine (`go %s(...)` in this package): schedule on the shard wheel instead of blocking",
					name, fd.Name.Name, fd.Name.Name)
			}
		}
		return true
	})
}
