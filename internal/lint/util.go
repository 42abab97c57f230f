package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the packages whose contracts the analyzers enforce.
const (
	qstatePath = "e2ebatch/internal/qstate"
	corePath   = "e2ebatch/internal/core"
	policyPath = "e2ebatch/internal/policy"
	enginePath = "e2ebatch/internal/engine"
)

// calleeObj resolves the object a call expression invokes: the *types.Func
// for direct calls and method calls, or the *types.Var for calls through a
// function-typed variable.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// objIs reports whether obj is the package-level object pkgPath.name.
func objIs(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// namedType unwraps pointers and aliases down to the *types.Named beneath t,
// or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIs reports whether t (possibly behind a pointer or alias) is the named
// type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	return n != nil && objIs(n.Obj(), pkgPath, name)
}

// methodRecv returns the receiver expression and resolved method object of a
// method call, or nils for anything else.
func methodRecv(info *types.Info, call *ast.CallExpr) (ast.Expr, *types.Func) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, _ := selection.Obj().(*types.Func)
	return sel.X, fn
}

// rootObj returns the object of the identifier at the root of a selector
// chain (c in c.est.tracker), or nil when the expression is rooted in
// anything else (a call, an index, a literal).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprKey renders a selector chain rooted at an identifier as a stable key
// ("<obj ptr>.field1.field2") so two syntactic references to the same
// variable path compare equal. It returns "" for expressions it cannot
// name (calls, indexing, composite literals).
func exprKey(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("%p", obj)
	case *ast.SelectorExpr:
		base := exprKey(info, x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprKey(info, x.X)
	}
	return ""
}

// declaredWithin reports whether obj's declaration lies inside node's source
// range — i.e. the variable is local to that function body or literal.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && node != nil &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// renderExpr prints a small expression for diagnostics.
func renderExpr(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + renderExpr(x.X)
	case *ast.IndexExpr:
		return renderExpr(x.X) + "[" + renderExpr(x.Index) + "]"
	case *ast.CallExpr:
		return renderExpr(x.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + renderExpr(x.X) + ")"
	}
	return "expression"
}

// funcDecls yields every function declaration with a body in the pass.
func funcDecls(p *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// pathIsOneOf reports whether path is one of the candidate import paths or
// lies beneath one of them.
func pathIsOneOf(path string, candidates ...string) bool {
	for _, c := range candidates {
		if path == c || strings.HasPrefix(path, c+"/") {
			return true
		}
	}
	return false
}
