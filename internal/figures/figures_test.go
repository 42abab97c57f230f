package figures

import (
	"bytes"
	"testing"
	"time"
)

// skipIfShort gates the full-sweep tests out of short mode, where the suite
// runs under -race and each virtual run costs ~7x wall clock. The fast
// determinism, invariant and stress tests still run and keep the race
// detector pointed at the concurrent paths.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
}

// TestFig1Matrix asserts the paper's Figure 1 outcome matrix.
func TestFig1Matrix(t *testing.T) {
	rows := Fig1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[float64]string{1: "both-better", 3: "mixed", 5: "both-worse"}
	for _, r := range rows {
		if r.Verdict != want[r.C] {
			t.Errorf("c=%v: verdict %q, want %q", r.C, r.Verdict, want[r.C])
		}
	}
	var buf bytes.Buffer
	WriteFig1(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestRunDeterminism: identical specs produce identical results.
func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Calib: DefaultCalib(), Seed: 3, Rate: 30000, Duration: 100 * time.Millisecond, BatchOn: true}
	a, b := Run(spec), Run(spec)
	if a.Res.Latency.Mean() != b.Res.Latency.Mean() || a.Res.Completed != b.Res.Completed {
		t.Fatalf("nondeterministic runs: %v/%d vs %v/%d",
			a.Res.Latency.Mean(), a.Res.Completed, b.Res.Latency.Mean(), b.Res.Completed)
	}
	if a.Est[0] != b.Est[0] {
		t.Fatalf("nondeterministic estimates")
	}
}

// TestDynamicRunProducesOnlineEstimates verifies the online exchange path
// feeds the toggler.
func TestDynamicRunProducesOnlineEstimates(t *testing.T) {
	out := Run(RunSpec{
		Calib:    DefaultCalib(),
		Seed:     5,
		Rate:     30000,
		Duration: 200 * time.Millisecond,
		Dynamic:  DefaultDynamicSpec(DefaultCalib().SLO),
	})
	if out.OnlineEstimates < 50 {
		t.Fatalf("online estimates = %d, want >= 50 (one per tick)", out.OnlineEstimates)
	}
	if out.TogglerStats.Decisions == 0 {
		t.Fatal("toggler never decided")
	}
}

// TestOnlineEstimatorSurvivesStaleExchanges: when the peer's metadata
// exchange all but stops (interval far beyond the run), the online
// estimator must degrade gracefully to its local view instead of going
// silent or producing garbage.
func TestOnlineEstimatorSurvivesStaleExchanges(t *testing.T) {
	out := Run(RunSpec{
		Calib:               DefaultCalib(),
		Seed:                5,
		Rate:                30000,
		Duration:            200 * time.Millisecond,
		BatchOn:             false,
		ExchangeInterval:    time.Hour, // only the very first exchange happens
		OnlineEstimateEvery: 5 * time.Millisecond,
	})
	if out.OnlineCount < 20 {
		t.Fatalf("online estimates = %d, want steady stream from the local view", out.OnlineCount)
	}
	// Local-view-only estimates miss the remote unread term but must
	// stay in the right regime (tens of µs to a few hundred µs at 30k).
	if out.OnlineAvg < 20*time.Microsecond || out.OnlineAvg > time.Millisecond {
		t.Fatalf("stale-exchange online estimate %v implausible", out.OnlineAvg)
	}
	// The offline (both-sided) analysis is unaffected by exchange rate.
	if !out.Est[0].Valid {
		t.Fatal("offline estimate invalid")
	}
}

// TestLinkJitterDoesNotBreakEstimation: with jitter on the wire the whole
// pipeline must keep functioning and the estimate must stay in regime.
func TestLinkJitterDoesNotBreakEstimation(t *testing.T) {
	cal := DefaultCalib()
	cal.Link.Jitter = 5 * time.Microsecond
	out := Run(RunSpec{Calib: cal, Seed: 5, Rate: 20000, Duration: 200 * time.Millisecond})
	if out.Res.Dropped != 0 {
		t.Fatalf("dropped %d with jitter", out.Res.Dropped)
	}
	if !out.Est[0].Valid {
		t.Fatal("estimate invalid under jitter")
	}
	if e := out.Est[0].Latency; e <= 0 || e > time.Millisecond {
		t.Fatalf("estimate %v implausible under jitter", e)
	}
}
