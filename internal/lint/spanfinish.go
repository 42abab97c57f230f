package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const spanPath = "e2ebatch/internal/obs/span"

// SpanFinish enforces the span lifecycle contract stated on Tracer.Finish:
// every Begin must reach exactly one Finish on every exit path, or
// the ring silently loses the request and the auditor under-counts. The
// open-span set is tracked lexically per block, mutexhold-style: Begin(&sp)
// opens sp's slot, Finish(&sp) closes it (a deferred Finish counts
// for the whole function), and a return or function end with a span still
// open is reported. Passing the span variable to anything other than the
// tracer closes the slot fail-open — ownership moved to code this lexical
// scan cannot see. Function literals are separate scopes: a closure is a
// callback with its own entry and exit paths.
var SpanFinish = &Analyzer{
	Name: "spanfinish",
	Doc:  "every span.Tracer Begin must reach a Finish on every exit path",
	Run:  runSpanFinish,
}

func runSpanFinish(p *Pass) {
	if p.Pkg.Path() == spanPath {
		return // the tracer's own package tests half-open spans on purpose
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkSpanScope(p, body)
			}
			return true
		})
	}
}

// openSpan records where a still-open span was begun.
type openSpan struct {
	pos  token.Pos
	name string
}

// checkSpanScope scans one function (or literal) body as its own scope.
func checkSpanScope(p *Pass, body *ast.BlockStmt) {
	open := checkSpanStmts(p, body.List, map[string]openSpan{})
	if len(open) > 0 && !endsInReturn(body.List) {
		reportOpenSpans(p, body.Rbrace, open, "function end")
	}
}

// checkSpanStmts scans one statement list, threading the open-span set
// through it; nested control-flow bodies are scanned with a copy, so a
// Begin inside an if-branch is checked against that branch's own exits.
// It returns the set still open after the list's straight-line path.
func checkSpanStmts(p *Pass, stmts []ast.Stmt, open map[string]openSpan) map[string]openSpan {
	open = copySpans(open)
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
			if key, name, op, ok := spanOp(p.TypesInfo, s.X); ok {
				switch op {
				case spanOpBegin:
					open[key] = openSpan{pos: s.X.Pos(), name: name}
				case spanOpClose:
					delete(open, key)
				}
				continue
			}
		case *ast.DeferStmt:
			if key, _, op, ok := spanOp(p.TypesInfo, s.Call); ok && op == spanOpClose {
				// A deferred Finish closes the span on every exit path.
				delete(open, key)
				continue
			}
		case *ast.ReturnStmt:
			reportOpenSpans(p, s.Pos(), open, "return")
			continue
		}
		// Any other appearance of an open span's variable — passed to a
		// helper, assigned away — transfers ownership beyond this lexical
		// scan; close the slot fail-open rather than false-positive.
		closeTransferredSpans(p.TypesInfo, stmt, open)
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			checkSpanStmts(p, s.List, open)
		case *ast.IfStmt:
			for s != nil {
				checkSpanStmts(p, s.Body.List, open)
				switch els := s.Else.(type) {
				case *ast.BlockStmt:
					checkSpanStmts(p, els.List, open)
					s = nil
				case *ast.IfStmt:
					s = els
				default:
					s = nil
				}
			}
		case *ast.ForStmt:
			checkSpanStmts(p, s.Body.List, open)
		case *ast.RangeStmt:
			checkSpanStmts(p, s.Body.List, open)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkSpanStmts(p, cc.Body, open)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkSpanStmts(p, cc.Body, open)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkSpanStmts(p, cc.Body, open)
				}
			}
		}
	}
	return open
}

// reportOpenSpans flags every span still open at an exit point, in source
// order so diagnostics are deterministic.
func reportOpenSpans(p *Pass, at token.Pos, open map[string]openSpan, exit string) {
	spans := make([]openSpan, 0, len(open))
	for _, o := range open {
		spans = append(spans, o)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].pos < spans[j].pos })
	for _, o := range spans {
		p.Reportf(at, "span %s begun at line %d is not finished on this %s path; every Begin must reach a Finish",
			o.name, p.Fset.Position(o.pos).Line, exit)
	}
}

type spanOpKind int

const (
	spanOpBegin spanOpKind = iota
	spanOpClose
)

// spanOp recognizes span.Tracer lifecycle calls, returning a key for the
// span argument (the first argument, behind an optional &).
func spanOp(info *types.Info, e ast.Expr) (key, name string, op spanOpKind, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) == 0 {
		return "", "", 0, false
	}
	_, fn := methodRecv(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != spanPath {
		return "", "", 0, false
	}
	arg := ast.Unparen(call.Args[0])
	if ue, isAddr := arg.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
		arg = ast.Unparen(ue.X)
	}
	k := exprKey(info, arg)
	if k == "" {
		return "", "", 0, false
	}
	switch fn.Name() {
	case "Begin":
		return k, renderExpr(arg), spanOpBegin, true
	case "Finish":
		return k, renderExpr(arg), spanOpClose, true
	}
	return "", "", 0, false
}

// closeTransferredSpans closes any open span whose variable appears in stmt
// outside a recognized tracer call — ownership left the scan's sight.
// Function literals are skipped: a closure capturing the span runs later,
// as its own scope.
func closeTransferredSpans(info *types.Info, stmt ast.Stmt, open map[string]openSpan) {
	if len(open) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, _, _, ok := spanOp(info, x); ok {
				// The tracer's own calls keep ownership; recurse only into
				// the non-span arguments.
				for _, a := range x.Args[1:] {
					closeTransferredExpr(info, a, open)
				}
				return false
			}
		case *ast.Ident:
			if obj := identObj(info, x); obj != nil {
				closeRooted(open, obj)
			}
		}
		return true
	})
}

func closeTransferredExpr(info *types.Info, e ast.Expr, open map[string]openSpan) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent {
			if obj := identObj(info, id); obj != nil {
				closeRooted(open, obj)
			}
		}
		return true
	})
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// closeRooted closes every open span whose key is rooted at obj — exprKey
// renders a bare identifier as the object pointer and a selector chain as
// "<ptr>.field...", so touching the root transfers everything under it.
func closeRooted(open map[string]openSpan, obj types.Object) {
	root := fmt.Sprintf("%p", obj)
	for k := range open {
		if k == root || strings.HasPrefix(k, root+".") {
			delete(open, k)
		}
	}
}

// endsInReturn reports whether the list's last statement terminates the
// function on its own (so the function-end exit is unreachable and already
// checked at the return).
func endsInReturn(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	}
	return false
}

func copySpans(m map[string]openSpan) map[string]openSpan {
	out := make(map[string]openSpan, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
