package lint

import "testing"

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, Determinism, "determinism")
}

// scopedPkgs are the simulated-time packages: one list scopes both the
// clock and the telemetry ban, so obs traffic in analytic, faults or trace
// is flagged exactly like obs traffic in sim.
var scopedPkgs = []string{"sim", "tcpsim", "figures", "analytic", "faults", "trace"}

// runScoped loads dir as each simulated-time package in turn, expecting
// every want line to match.
func runScoped(t *testing.T, dir string) {
	for _, pkg := range scopedPkgs {
		t.Run(pkg, func(t *testing.T) {
			runGoldenAs(t, Determinism, dir, "e2ebatch/internal/"+pkg)
		})
	}
}

func TestWallClockGoldenRestricted(t *testing.T) {
	runScoped(t, "wallclock")
}

func TestWallClockGoldenUnrestricted(t *testing.T) {
	// The same reads under an unrestricted path produce nothing.
	runExpectNone(t, Determinism, "wallclock")
}

func TestObsDeterminismGoldenRestricted(t *testing.T) {
	runScoped(t, "obsdeterminism")
}

func TestObsDeterminismGoldenUnrestricted(t *testing.T) {
	// The same code outside the simulated-time packages (realtcp, cmd/,
	// examples) is exactly where obs is supposed to be used, so every want
	// comment must go unmatched.
	runExpectNone(t, Determinism, "obsdeterminism")
}

func TestLockSafetyGolden(t *testing.T) {
	runGolden(t, LockSafety, "locksafety")
}

func TestMutexHoldGoldenRestricted(t *testing.T) {
	runGoldenAs(t, MutexHold, "mutexhold", "e2ebatch/internal/policy")
}

func TestEngineWiringGoldenRestricted(t *testing.T) {
	// The testdata stands in for any monitored internal package.
	runGoldenAs(t, EngineWiring, "enginewiring", "e2ebatch/internal/figures")
}

func TestEngineWiringGoldenEngineExempt(t *testing.T) {
	// The same calls inside internal/engine are the loop's own home.
	runExpectNoneAs(t, EngineWiring, "enginewiring", "e2ebatch/internal/engine")
}

func TestEngineWiringGoldenUnrestricted(t *testing.T) {
	// Outside internal/ and cmd/ (examples, external code) the rule does
	// not apply, so every want comment must go unmatched.
	runExpectNone(t, EngineWiring, "enginewiring")
}

func TestPerTickerConnGoldenRestricted(t *testing.T) {
	// The testdata stands in for the real-socket path, where the rule
	// applies.
	runGoldenAs(t, PerTickerConn, "pertickerconn", "e2ebatch/internal/realtcp")
}

func TestPerTickerConnGoldenShardScoped(t *testing.T) {
	// internal/shard is scoped too: the same patterns must be flagged
	// there (the driver ticker survives only via its ignore hatch).
	runGoldenAs(t, PerTickerConn, "pertickerconn", "e2ebatch/internal/shard")
}

func TestPerTickerConnGoldenUnrestricted(t *testing.T) {
	// Outside realtcp/shard, runtime timers are out of scope — sim
	// drivers, figures, and cmd binaries use them freely.
	runExpectNone(t, PerTickerConn, "pertickerconn_ok")
}

func TestHotPathGolden(t *testing.T) {
	runGolden(t, HotPath, "hotpath")
}

func TestEscapesGolden(t *testing.T) {
	runGolden(t, Escapes, "escapes")
}

func TestMutexHoldGoldenUnrestricted(t *testing.T) {
	// Outside qstate/policy the same code is not this analyzer's
	// business (realtcp's server does socket I/O under its own locks by
	// design), so the want comments in the testdata must all go unmatched.
	runExpectNone(t, MutexHold, "mutexhold")
}
