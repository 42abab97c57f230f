package lint

import (
	"go/ast"
)

// SnapshotPair guards Algorithm 2's precondition: GetAvgs (and its wire
// sibling WireAvgs) subtracts two *successive snapshots of the same queue*.
// Feeding it snapshots of two different trackers yields deltas that look
// plausible — positive elapsed time, positive departures — while describing
// no queue at all, so nothing downstream can catch the mistake.
//
// The analyzer traces each argument to its producing tracker within the
// calling function: directly through x.Snapshot(...) / x.Peek() / x.Wire()
// results (unwrapping ToWire), or through a local variable with exactly one
// assignment from such a call. A call is flagged only when BOTH arguments
// resolve and the producing values differ — anything short of proof stays
// silent, since snapshots routinely cross function and struct boundaries
// (core.Queues, the prev/now pairs estimators carry).
var SnapshotPair = &Analyzer{
	Name: "snapshotpair",
	Doc:  "forbid GetAvgs/WireAvgs over snapshots of two different trackers",
	Run:  runSnapshotPair,
}

func runSnapshotPair(p *Pass) {
	for _, fd := range funcDecls(p) {
		body := fd.Body
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(p.TypesInfo, call)
			var name string
			switch {
			case objIs(obj, qstatePath, "GetAvgs"):
				name = "GetAvgs"
			case objIs(obj, qstatePath, "WireAvgs"):
				name = "WireAvgs"
			default:
				return true
			}
			if len(call.Args) != 2 {
				return true
			}
			prev := snapshotOrigin(p, body, call.Args[0], 0)
			now := snapshotOrigin(p, body, call.Args[1], 0)
			if prev != "" && now != "" && prev != now {
				p.Reportf(call.Pos(),
					"%s arguments come from different trackers (%s vs %s); Algorithm 2 needs two successive snapshots of the same queue",
					name, originLabel(p, body, call.Args[0]), originLabel(p, body, call.Args[1]))
			}
			return true
		})
	}
}

// snapshotProducers are the methods whose receiver identifies the queue a
// snapshot belongs to.
var snapshotProducers = map[string]bool{"Snapshot": true, "Peek": true, "Wire": true}

// snapshotOrigin resolves expr to a key naming the tracker value its
// snapshot was taken from, or "" when unknown.
func snapshotOrigin(p *Pass, body *ast.BlockStmt, expr ast.Expr, depth int) string {
	if depth > 8 {
		return ""
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		if recv, fn := methodRecv(p.TypesInfo, e); fn != nil && snapshotProducers[fn.Name()] {
			return exprKey(p.TypesInfo, recv)
		}
		// ToWire(snap) carries its argument's origin onto the wire.
		if objIs(calleeObj(p.TypesInfo, e), qstatePath, "ToWire") && len(e.Args) == 1 {
			return snapshotOrigin(p, body, e.Args[0], depth+1)
		}
	case *ast.Ident:
		if rhs := soleAssignment(p, body, e); rhs != nil {
			return snapshotOrigin(p, body, rhs, depth+1)
		}
	}
	return ""
}

// soleAssignment returns the single right-hand side ever assigned to ident's
// object within body, or nil when there are zero or several assignments
// (reassignment makes the origin flow-sensitive, which this analyzer does
// not attempt).
func soleAssignment(p *Pass, body *ast.BlockStmt, ident *ast.Ident) ast.Expr {
	obj := p.TypesInfo.Uses[ident]
	if obj == nil || !declaredWithin(obj, body) {
		return nil
	}
	var rhs ast.Expr
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := p.TypesInfo.Defs[id]
			if lobj == nil {
				lobj = p.TypesInfo.Uses[id]
			}
			if lobj == obj {
				rhs = as.Rhs[i]
				count++
			}
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return rhs
}

// originLabel renders the argument's producing expression for the message.
func originLabel(p *Pass, body *ast.BlockStmt, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		if recv, fn := methodRecv(p.TypesInfo, e); fn != nil && snapshotProducers[fn.Name()] {
			return renderExpr(recv)
		}
		if objIs(calleeObj(p.TypesInfo, e), qstatePath, "ToWire") && len(e.Args) == 1 {
			return originLabel(p, body, e.Args[0])
		}
	case *ast.Ident:
		if rhs := soleAssignment(p, body, e); rhs != nil {
			return originLabel(p, body, rhs)
		}
	}
	return renderExpr(expr)
}
