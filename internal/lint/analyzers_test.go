package lint

import "testing"

func TestDetRandGolden(t *testing.T) {
	runGolden(t, DetRand, "detrand")
}

func TestWallClockGoldenRestricted(t *testing.T) {
	// The testdata stands in for a simulated-time package.
	runGoldenAs(t, WallClock, "wallclock", "e2ebatch/internal/sim")
}

func TestWallClockGoldenUnrestricted(t *testing.T) {
	// The same reads under an unrestricted path produce nothing.
	runGolden(t, WallClock, "wallclock_ok")
}

func TestLockSafetyGolden(t *testing.T) {
	runGolden(t, LockSafety, "locksafety")
}

func TestSnapshotPairGolden(t *testing.T) {
	runGolden(t, SnapshotPair, "snapshotpair")
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

func TestObsDeterminismGoldenRestricted(t *testing.T) {
	// The testdata stands in for a golden-determinism package.
	runGoldenAs(t, ObsDeterminism, "obsdeterminism", "e2ebatch/internal/figures")
}

func TestObsDeterminismGoldenUnrestricted(t *testing.T) {
	// The same code outside sim/tcpsim/figures (realtcp, cmd/, examples) is
	// exactly where obs is supposed to be used, so every want comment must
	// go unmatched.
	runExpectNone(t, ObsDeterminism, "obsdeterminism")
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
	// Outside qstate/core/policy the same code is not this analyzer's
	// business (realtcp's server does socket I/O under its own locks by
	// design), so the want comments in the testdata must all go unmatched.
	runExpectNone(t, MutexHold, "mutexhold")
}

func TestSpanFinishGolden(t *testing.T) {
	runGolden(t, SpanFinish, "spanfinish")
}
