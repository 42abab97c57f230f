package lint

import (
	"go/ast"
	"go/types"
)

// EngineWiring enforces the single-loop contract: the estimate→policy
// control tick lives in internal/engine and nowhere else. Before the engine
// existed, four hand-wired copies of the loop had already diverged (the
// real-TCP path missed degraded-tick routing, multiconn missed the cork
// restore). The estimator and the AIMD step are unexported engine
// internals, so the compiler keeps them there; what is left is the toggler:
// any Observe/ObserveDegraded method returning a policy.Mode (the ε-greedy
// and UCB togglers, and any controller interface wrapping them — wrapping
// the toggler in a local interface must not launder the call) may be
// called only from internal/engine and internal/policy. Toggler.Observe
// cannot be unexported like the other two: callers outside the engine
// build a toggler and pass it as engine.Config.Controller, so its methods
// must satisfy an interface declared in another package. Everything else under internal/ and cmd/ must construct an
// engine.Endpoint and let it run the tick. Examples stay out of scope —
// pedagogical code may show the raw pieces — and //lint:ignore
// e2elint/enginewiring remains the justified escape hatch.
var EngineWiring = &Analyzer{
	Name: "enginewiring",
	Doc:  "forbid toggler decisions outside internal/engine",
	Run:  runEngineWiring,
}

// engineWiringScope is where the rule applies; engineWiringAllowed carves
// out the loop's own home plus the package defining the togglers.
var (
	engineWiringScope   = []string{"e2ebatch/internal", "e2ebatch/cmd"}
	engineWiringAllowed = []string{enginePath, policyPath}
)

func runEngineWiring(p *Pass) {
	path := p.Pkg.Path()
	if !pathIsOneOf(path, engineWiringScope...) || pathIsOneOf(path, engineWiringAllowed...) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, fn := methodRecv(p.TypesInfo, call)
			if fn == nil || (fn.Name() != "Observe" && fn.Name() != "ObserveDegraded") || !returnsPolicyMode(fn) {
				return true
			}
			p.Reportf(call.Pos(),
				"batching decision outside internal/engine: %s.%s must be driven by the engine tick (engine.Endpoint)",
				renderExpr(recv), fn.Name())
			return true
		})
	}
}

// returnsPolicyMode reports whether fn's signature returns exactly one
// policy.Mode — the shape of every mode-deciding Observe variant, concrete
// or behind an interface.
func returnsPolicyMode(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Results().Len() == 1 && typeIs(sig.Results().At(0).Type(), policyPath, "Mode")
}
