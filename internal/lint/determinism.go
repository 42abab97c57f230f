package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// deterministicPackages are the packages whose output must replay byte for
// byte from a seed: the discrete-event simulator, the simulated TCP stack,
// the figure runners, the closed-form rival, the fault plans and the
// counter log every figure run fills (trace). Only the simulated clock is
// legal there — a wall-clock read silently decouples the
// estimator's integrals from virtual time, so the sweep would still run but
// its figures would depend on host load. The telemetry plane stays out too:
// a registry increment, ring push or span Begin/Finish on a simulated hot
// path is a side channel that can reorder allocations, perturb timings under
// -race, and quietly grow into control flow ("if counter > N"). Telemetry
// reaches simulated runs only through the engine.Observer hook and the
// loadgen OnComplete callback (both defined outside obs), which the golden
// tests run nil.
var deterministicPackages = []string{
	"e2ebatch/internal/sim",
	"e2ebatch/internal/tcpsim",
	"e2ebatch/internal/figures",
	"e2ebatch/internal/analytic",
	"e2ebatch/internal/faults",
	"e2ebatch/internal/trace",
}

const obsPath = "e2ebatch/internal/obs"

// Determinism protects the per-run seeded replay contract. Module-wide,
// every RNG must be an explicitly seeded *rand.Rand threaded through
// constructors (each run's stream derived from its own spec.Seed), so three
// shapes are flagged:
//
//  1. calls to math/rand's top-level functions that draw from the shared
//     global source (rand.Intn, rand.Float64, rand.Seed, rand.Shuffle, ...);
//  2. package-level variables of type *rand.Rand or rand.Source — a global
//     stream shared across runs reintroduces cross-run coupling even when
//     seeded;
//  3. rand.New / rand.NewSource seeded from time.Now (run-to-run
//     nondeterminism by construction).
//
// Inside deterministicPackages it also flags time.Now / time.Since /
// time.Until and any reference to the internal/obs subtree — imports,
// registry reads or writes, ring pushes, span tracing, type references.
// Real-socket code (internal/realtcp, cmd/...) legitimately reads the wall
// clock and records telemetry, and is out of that scope.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid global or wall-clock-seeded math/rand state, and wall-clock or internal/obs use inside simulated-time packages",
	Run:  runDeterminism,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) are the
// sanctioned alternative and are absent.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"Read": true, "ExpFloat64": true, "NormFloat64": true,
}

func runDeterminism(p *Pass) {
	path := p.Pkg.Path()
	scoped := pathIsOneOf(path, deterministicPackages...)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, isVar := p.TypesInfo.Defs[name].(*types.Var)
					if isVar && (typeIs(obj.Type(), "math/rand", "Rand") || isRandSource(obj.Type())) {
						p.Reportf(name.Pos(),
							"package-level RNG %s shares one stream across runs; thread a per-run seeded *rand.Rand instead",
							name.Name)
					}
				}
			}
		}
		if scoped {
			for _, imp := range f.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil && pathIsOneOf(ip, obsPath) {
					p.Reportf(imp.Pos(),
						"import of %s in golden-determinism package %s: telemetry may only enter through an engine.Observer hook",
						ip, path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRandCall(p, n)
				if scoped {
					obj := calleeObj(p.TypesInfo, n)
					for _, name := range []string{"Now", "Since", "Until"} {
						if objIs(obj, "time", name) {
							p.Reportf(n.Pos(),
								"wall-clock time.%s in simulated-time package %s; use the simulation clock (sim.Time / qstate.Time)",
								name, path)
						}
					}
				}
			case *ast.Ident:
				if !scoped {
					break
				}
				// The qualifier ident ("obs" in obs.NewRegistry) resolves to
				// a PkgName owned by the importing package, so only the
				// selected object itself matches — one finding per use.
				if obj := p.TypesInfo.Uses[n]; obj != nil && obj.Pkg() != nil && pathIsOneOf(obj.Pkg().Path(), obsPath) {
					p.Reportf(n.Pos(),
						"use of %s.%s in golden-determinism package %s: obs must stay behind the engine.Observer seam so golden figure output cannot be perturbed",
						obj.Pkg().Path(), obj.Name(), path)
				}
			}
			return true
		})
	}
}

// checkRandCall flags a call drawing from math/rand's global source or
// seeding a constructor from the wall clock. Methods on an explicit
// *rand.Rand / Source are exactly what the contract asks for.
func checkRandCall(p *Pass, call *ast.CallExpr) {
	fn, ok := calleeObj(p.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch {
	case globalRandFuncs[fn.Name()]:
		p.Reportf(call.Pos(),
			"rand.%s draws from the process-global source; use a per-run seeded *rand.Rand",
			fn.Name())
	case (fn.Name() == "New" || fn.Name() == "NewSource") && wallClockSeeded(p.TypesInfo, call):
		p.Reportf(call.Pos(),
			"rand.%s seeded from time.Now is nondeterministic across runs; thread an explicit seed",
			fn.Name())
	}
}

// isRandSource reports whether t is math/rand.Source or Source64.
func isRandSource(t types.Type) bool {
	return typeIs(t, "math/rand", "Source") || typeIs(t, "math/rand", "Source64")
}

// wallClockSeeded reports whether a time.Now call feeds a rand
// constructor's arguments. Nested rand constructors are skipped — they
// produce their own diagnostic, so rand.New(rand.NewSource(time.Now()...))
// is reported once, at the NewSource.
func wallClockSeeded(info *types.Info, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if found || !ok {
				return !found
			}
			callee := calleeObj(info, c)
			if objIs(callee, "math/rand", "New") || objIs(callee, "math/rand", "NewSource") {
				return false
			}
			found = objIs(callee, "time", "Now")
			return !found
		})
	}
	return found
}
