package lint

import (
	"go/ast"
	"go/types"
)

// EngineWiring enforces the PR-4 single-loop contract: the estimate→policy
// control tick lives in internal/engine and nowhere else. Before the engine
// existed, four hand-wired copies of the loop had already diverged (the
// real-TCP path missed degraded-tick routing, multiconn missed the cork
// restore), so the rule is mechanical now:
//
//   - core.Estimator.Update,
//   - any Observe/ObserveDegraded method returning a policy.Mode (the
//     ε-greedy and UCB togglers, and any controller interface wrapping
//     them — wrapping the toggler in a local interface must not launder
//     the call), and
//   - policy.AIMD.Observe
//
// may be called only from internal/engine (and from core/policy
// themselves). Everything else under internal/ and cmd/ must construct an
// engine.Endpoint and let it run the tick. Examples stay out of scope —
// pedagogical code may show the raw pieces — and //lint:ignore
// e2elint/enginewiring remains the justified escape hatch.
var EngineWiring = &Analyzer{
	Name: "enginewiring",
	Doc:  "forbid estimator updates and toggler decisions outside internal/engine",
	Run:  runEngineWiring,
}

// engineWiringScope is where the rule applies; engineWiringAllowed carves
// out the loop's own home plus the packages defining the restricted
// methods.
var (
	engineWiringScope   = []string{"e2ebatch/internal", "e2ebatch/cmd"}
	engineWiringAllowed = []string{enginePath, corePath, policyPath}
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
			if fn == nil {
				return true
			}
			rt := p.TypesInfo.TypeOf(recv)
			switch fn.Name() {
			case "Update":
				if typeIs(rt, corePath, "Estimator") {
					p.Reportf(call.Pos(),
						"estimator update outside internal/engine: %s.Update must run inside the engine tick (engine.Endpoint)",
						renderExpr(recv))
				}
			case "Observe", "ObserveDegraded":
				if returnsPolicyMode(fn) {
					p.Reportf(call.Pos(),
						"batching decision outside internal/engine: %s.%s must be driven by the engine tick (engine.Endpoint)",
						renderExpr(recv), fn.Name())
				} else if fn.Name() == "Observe" && typeIs(rt, policyPath, "AIMD") {
					p.Reportf(call.Pos(),
						"batching decision outside internal/engine: %s.Observe (AIMD) must be driven by the engine tick (engine.AIMDPolicy)",
						renderExpr(recv))
				}
			}
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
