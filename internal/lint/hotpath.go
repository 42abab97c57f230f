package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The //e2e:hotpath annotation marks a function as part of the
// estimate→policy tick's allocation-free hot path: the control loop's own
// overhead must stay negligible next to the queueing delays it estimates,
// and on the 100k-connection trajectory every per-tick allocation multiplies
// into GC pressure that perturbs the very latencies being measured. The
// contract an annotated function signs is enforced by three layers
// (DESIGN.md §13): this AST pass, the compiler-backed escapes analyzer, and
// the testing.AllocsPerRun allocgate tests.
//
// HotPath walks every annotated function and its statically-resolvable
// intra-module callees (the transitive closure over the loaded packages) and
// flags the constructs that force or invite allocation:
//
//   - defer statements (also a latency tax on the tick);
//   - function literals capturing local variables (the closure and its
//     captures move to the heap);
//   - fmt/errors calls (formatting allocates; errors.New escapes);
//   - map and slice composite literals, and make of a map/slice/chan;
//   - append (growth reallocates; hot paths use pre-sized scratch), except
//     to a slice the function received as a parameter — the strconv.AppendInt
//     idiom: the caller owns the buffer and its capacity, and its allocgate
//     pins the steady state;
//   - string ↔ []byte conversions (both directions copy), except string(b)
//     where the compiler is documented to alias b instead of copying it: as
//     the key of a map read (m[string(b)], never a map write), as a switch
//     tag, and as an operand of a comparison;
//   - interface boxing at call sites: a non-pointer-shaped concrete value
//     passed where an interface is expected heap-allocates the value.
//
// Calls through interfaces and function values cannot be traversed
// statically and are skipped — the allocgate tests cover what the walk
// cannot see. Arguments of panic calls are exempt: a panicking tick is
// already dead, so the fmt.Sprintf in a panic message costs nothing on the
// live path. //lint:ignore e2elint/hotpath remains the justified escape
// hatch for the rest.
var HotPath = &Analyzer{
	Name:      "hotpath",
	Doc:       "forbid allocation-forcing constructs in //e2e:hotpath functions and their intra-module callees",
	RunModule: runHotPath,
}

// hotpathDirective is the annotation, placed in a function's doc comment.
const hotpathDirective = "//e2e:hotpath"

// hotFunc is one function declaration paired with the package it lives in.
type hotFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// collectHotFuncs returns the //e2e:hotpath-annotated functions across pkgs
// plus an index of every function declaration with a body, for callee
// traversal.
func collectHotFuncs(pkgs []*Package) (roots []hotFunc, index map[*types.Func]hotFunc) {
	index = map[*types.Func]hotFunc{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				hf := hotFunc{pkg: pkg, decl: fd}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					index[obj] = hf
				}
				if hasHotpathDirective(fd) {
					roots = append(roots, hf)
				}
			}
		}
	}
	return roots, index
}

// hasHotpathDirective reports whether fd's doc comment carries the
// //e2e:hotpath annotation.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective {
			return true
		}
	}
	return false
}

// funcDisplayName renders a function for diagnostics: "Name" or
// "(Recv).Name".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + renderExpr(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func runHotPath(p *ModulePass) {
	for _, e := range hotClosure(p.Pkgs) {
		scanHotBody(p, e.fn, e.root)
	}
}

// hotEntry is one function on the hot path: the function itself plus the
// display name of the annotated root it was reached from (its own name when
// it is the root).
type hotEntry struct {
	fn   hotFunc
	root string
}

// hotClosure computes the transitive closure of //e2e:hotpath functions over
// statically-resolvable intra-module calls, breadth-first so each function is
// attributed to the nearest annotated root. Both the AST pass and the escapes
// analyzer enforce over exactly this set.
func hotClosure(pkgs []*Package) []hotEntry {
	roots, index := collectHotFuncs(pkgs)
	var queue []hotEntry
	for _, r := range roots {
		queue = append(queue, hotEntry{r, funcDisplayName(r.decl)})
	}
	visited := map[*ast.FuncDecl]bool{}
	var out []hotEntry
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.fn.decl] {
			continue
		}
		visited[it.fn.decl] = true
		out = append(out, it)
		for _, callee := range intraModuleCallees(it.fn, index) {
			if !visited[callee.decl] {
				queue = append(queue, hotEntry{callee, it.root})
			}
		}
	}
	return out
}

// intraModuleCallees resolves the statically-known functions fn's body
// calls that have a declaration in the loaded package set. Calls inside
// function literals are excluded (the literal's body runs off the tick,
// when it runs at all), as are calls through interfaces or function values
// (unresolvable).
func intraModuleCallees(fn hotFunc, index map[*types.Func]hotFunc) []hotFunc {
	info := fn.pkg.Info
	var out []hotFunc
	seen := map[*types.Func]bool{}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		if recv, m := methodRecv(info, call); m != nil && recv != nil {
			obj = m
		} else {
			obj = calleeObj(info, call)
		}
		f, ok := obj.(*types.Func)
		if !ok || seen[f] {
			return true
		}
		if callee, ok := index[f]; ok {
			seen[f] = true
			out = append(out, callee)
		}
		return true
	})
	return out
}

// scanHotBody flags the allocation-forcing constructs lexically inside one
// hot function's body. where names the function in diagnostics, suffixed
// with the annotated root when the function was reached as a callee.
func scanHotBody(p *ModulePass, fn hotFunc, root string) {
	info := fn.pkg.Info
	where := "//e2e:hotpath function " + root
	if name := funcDisplayName(fn.decl); name != root {
		where = name + ", on the hot path of //e2e:hotpath " + root
	}
	free := aliasedConversions(info, fn.decl.Body)
	params := map[types.Object]bool{}
	for _, f := range fn.decl.Type.Params.List {
		for _, name := range f.Names {
			params[info.Defs[name]] = true
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesLocals(info, x, fn.decl) {
				p.Reportf(x.Pos(),
					"closure captures local variables in %s; the closure and its captures allocate", where)
			}
			return false // the literal's body runs off the hot path
		case *ast.DeferStmt:
			p.Reportf(x.Pos(), "defer in %s; unlock explicitly on every return path instead", where)
		case *ast.CallExpr:
			if isPanicCall(info, x) {
				// A panicking tick is already dead; its message may format.
				return false
			}
			if free[x] || appendsToParam(info, x, params) {
				return true
			}
			checkHotCall(p, info, x, where)
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				p.Reportf(x.Pos(), "map literal in %s; maps always allocate", where)
			case *types.Slice:
				p.Reportf(x.Pos(), "slice literal in %s; hoist it to a package var or endpoint scratch field", where)
			}
		}
		return true
	}
	ast.Inspect(fn.decl.Body, walk)
}

// aliasedConversions collects the string(b) conversions in body that the
// compiler performs without copying b: the key of a map read, a switch tag,
// and the operands of a comparison. A map write is not among them — a new
// key has to own its bytes.
func aliasedConversions(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	free := map[*ast.CallExpr]bool{}
	written := map[ast.Expr]bool{}
	mark := func(e ast.Expr) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && isString(tv.Type) {
				free[call] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				written[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			written[ast.Unparen(x.X)] = true
		case *ast.IndexExpr:
			if _, isMap := info.TypeOf(x.X).Underlying().(*types.Map); isMap && !written[x] {
				mark(x.Index)
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				mark(x.Tag)
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				mark(x.X)
				mark(x.Y)
			}
		}
		return true
	})
	return free
}

// appendsToParam reports whether call is an append whose destination is one
// of the enclosing function's own parameters.
func appendsToParam(info *types.Info, call *ast.CallExpr, params map[types.Object]bool) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && params[info.Uses[dst]]
}

// capturesLocals reports whether lit references a variable declared in the
// enclosing function outside the literal itself — the captures that force
// the closure onto the heap. Package-level state is shared, not captured.
func capturesLocals(info *types.Info, lit *ast.FuncLit, encl *ast.FuncDecl) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj := info.Uses[id]
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if declaredWithin(obj, encl) && !declaredWithin(obj, lit) {
			captured = true
		}
		return true
	})
	return captured
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// checkHotCall flags the call-shaped constructs: conversions, builtins,
// fmt/errors, and interface boxing of arguments.
func checkHotCall(p *ModulePass, info *types.Info, call *ast.CallExpr, where string) {
	// string ↔ []byte conversions are CallExprs whose Fun is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if isStringByteConv(dst, src) {
			p.Reportf(call.Pos(), "string/[]byte conversion in %s; both directions copy and allocate", where)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				p.Reportf(call.Pos(), "append in %s; growth reallocates — use a pre-sized scratch buffer", where)
			case "make":
				if len(call.Args) > 0 {
					switch info.TypeOf(call.Args[0]).Underlying().(type) {
					case *types.Map, *types.Slice, *types.Chan:
						p.Reportf(call.Pos(), "make in %s; allocate once at construction, not per tick", where)
					}
				}
			}
			return
		}
	}
	if obj := calleeObj(info, call); obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt", "errors":
			p.Reportf(call.Pos(), "call to %s.%s in %s; formatting and error construction allocate",
				obj.Pkg().Path(), obj.Name(), where)
			return
		}
	}
	checkBoxedArgs(p, info, call, where)
}

// isStringByteConv reports a conversion between string and []byte in
// either direction.
func isStringByteConv(a, b types.Type) bool {
	return (isString(a) && isByteSlice(b)) || (isByteSlice(a) && isString(b))
}

func isString(t types.Type) bool {
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	st, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	bt, ok := st.Elem().Underlying().(*types.Basic)
	return ok && bt.Kind() == types.Byte
}

// checkBoxedArgs flags arguments whose concrete, non-pointer-shaped values
// convert to an interface parameter at the call site — the conversion heap-
// allocates a copy of the value on every call.
func checkBoxedArgs(p *ModulePass, info *types.Info, call *ast.CallExpr, where string) {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, elements unboxed
			}
			st, ok := sig.Params().At(np - 1).Type().Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if !types.IsInterface(pt) || at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if bt, ok := at.(*types.Basic); ok && bt.Kind() == types.UntypedNil {
			continue
		}
		if pointerShaped(at) {
			continue // the pointer word stores directly, no allocation
		}
		p.Reportf(arg.Pos(), "interface boxing in %s: %s converts to %s and heap-allocates per call",
			where, at.String(), pt.String())
	}
}

// pointerShaped reports whether values of t fit an interface's data word
// without allocating: pointers, channels, maps, functions, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
