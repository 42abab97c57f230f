package figures

import (
	"bytes"
	"math"
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/tcpsim"
)

const testDur = 300 * time.Millisecond

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

// col reads the cells of the column headed name, failing the test when the
// sweep has no such column (or two) or its cells are not T.
func col[T any](t testing.TB, s *Sweep, name string) []T {
	t.Helper()
	v, err := Col[T](s, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// statOf reads the value printed under the table as name, failing the test
// when the sweep prints no such value.
func statOf[T any](t testing.TB, s *Sweep, name string) T {
	t.Helper()
	v, err := Stat[T](s, name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// estLat is an estimate's latency, 0 when it abstained.
func estLat(e core.Estimate) time.Duration {
	if !e.Valid {
		return 0
	}
	return e.Latency
}

// checkRenders fails when the sweep renders nothing.
func checkRenders(t *testing.T, s *Sweep) {
	t.Helper()
	var buf bytes.Buffer
	s.Write(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestFig2Flip asserts the bare-metal/VM outcome flip at the fixed load:
// same server-side behaviour, opposite best batching mode.
func TestFig2Flip(t *testing.T) {
	skipIfShort(t)
	s := fig2(Params{Calib: DefaultCalib(), Dur: testDur, Seed: 11}).run()
	nagle, cli, srv := col[string](t, s, "nagle"), col[float64](t, s, "cliCPU"), col[float64](t, s, "srvCPU")
	off, on := col[time.Duration](t, s, "lat (off)"), col[time.Duration](t, s, "lat (on)")
	if nagle[0] != "helps" {
		t.Errorf("bare metal: Nagle should help (off=%v on=%v)", off[0], on[0])
	}
	if nagle[1] == "helps" {
		t.Errorf("VM client: Nagle should hurt (off=%v on=%v)", off[1], on[1])
	}
	// Figure 2a: the VM client burns noticeably more CPU.
	if cli[1] < 1.3*cli[0] {
		t.Errorf("VM client CPU %.2f vs bare %.2f: expected a clear increase", cli[1], cli[0])
	}
	// Figure 2b: the server sees the same workload either way.
	ratio := srv[1] / srv[0]
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("server CPU changed with client config: %.2f vs %.2f", srv[1], srv[0])
	}
	checkRenders(t, s)
}

// TestFig4aShape asserts the headline claims of Figure 4a on a coarse grid:
// batching hurts at low load, wins beyond a cutoff, extends the SLO range,
// and the estimates locate the same cutoff.
func TestFig4aShape(t *testing.T) {
	skipIfShort(t)
	s := fig4a(Params{Calib: DefaultCalib(), Dur: testDur, Seed: 7,
		Rates: []float64{5000, 20000, 35000, 50000, 70000, 85000}}).run()
	off, on := col[time.Duration](t, s, "meas off"), col[time.Duration](t, s, "meas on")

	if on[0] <= off[0] { // 5 kRPS
		t.Errorf("at 5k: batching should hurt (off=%v on=%v)", off[0], on[0])
	}
	if on[4]*3 >= off[4] { // 70 kRPS
		t.Errorf("at 70k: batching should win by >3x (off=%v on=%v)", off[4], on[4])
	}

	// The stats under the table read in kRPS.
	measCut, estCut := statOf[float64](t, s, "measured cutoff"), statOf[float64](t, s, "estimated cutoff")
	if measCut == 0 || estCut == 0 {
		t.Fatalf("cutoffs missing: measured=%v estimated=%v", measCut, estCut)
	}
	if math.Abs(measCut-estCut) > 15 {
		t.Errorf("cutoffs diverge: measured=%v estimated=%v", measCut, estCut)
	}

	if m := statOf[float64](t, s, "off SLO max"); m > 40 {
		t.Errorf("off-mode SLO range extends to %vk, want <= 40k", m)
	}
	if m := statOf[float64](t, s, "on SLO max"); m < 70 {
		t.Errorf("on-mode SLO range only %vk, want >= 70k", m)
	}
	if x := statOf[float64](t, s, "extension"); x < 1.5 {
		t.Errorf("SLO extension %.2fx, want >= 1.5x (paper: 1.93x)", x)
	}
	if g := statOf[float64](t, s, "latency gain"); g < 1.2 {
		t.Errorf("latency gain at boundary %.2fx, want >= 1.2x (paper: 2.80x)", g)
	}

	// Estimates must be valid at every swept point and track the
	// measured value tightly once queueing dominates.
	estOff, estOn := col[core.Estimate](t, s, "est(B) off"), col[core.Estimate](t, s, "est(B) on")
	for i, r := range s.Rows {
		if !estOff[i].Valid || !estOn[i].Valid {
			t.Fatalf("invalid byte estimate at %v", r.Specs[0].Rate)
		}
	}
	// 85 kRPS, deep saturation.
	if e := relErr(estOff[5].Latency, off[5]); e > 0.30 {
		t.Errorf("saturated estimate error %.0f%%, want <= 30%%", 100*e)
	}
	checkRenders(t, s)
}

// TestFig4bRuns asserts the 95:5 mix sweep produces valid estimates, a
// cutoff, and per-kind splits.
func TestFig4bRuns(t *testing.T) {
	skipIfShort(t)
	s := fig4b(Params{Calib: DefaultCalib(), Dur: testDur, Seed: 7, Rates: []float64{5000, 35000, 50000}}).run()
	if statOf[float64](t, s, "measured cutoff") == 0 {
		t.Fatal("no measured cutoff on the mixed sweep")
	}
	// The per-kind split is no column: it is read from the runs.
	kind := func(r Row, arm, k int) time.Duration {
		if h := r.Runs[arm].Res.ByKind[k]; h != nil {
			return h.Mean()
		}
		return 0
	}
	for _, r := range s.Rows {
		if kind(r, 0, loadgen.KindSet) == 0 || kind(r, 0, loadgen.KindGet) == 0 {
			t.Fatalf("per-kind latencies missing at %v", r.Specs[0].Rate)
		}
		if !r.Runs[0].Est[tcpsim.UnitBytes].Valid || !r.Runs[1].Est[tcpsim.UnitBytes].Valid {
			t.Fatalf("invalid estimate at %v", r.Specs[0].Rate)
		}
	}
	// GETs (tiny requests, 16 KiB responses) must be cheaper than SETs
	// without batching at low load.
	if low := s.Rows[0]; kind(low, 0, loadgen.KindGet) >= kind(low, 0, loadgen.KindSet) {
		t.Errorf("at 5k off: GET %v should beat SET %v", kind(low, 0, loadgen.KindGet), kind(low, 0, loadgen.KindSet))
	}
}

// TestToggleConvergesToBestStatic asserts the dynamic toggler lands near
// whichever static mode wins at each load — the paper's core "what if"
// turned into a closed loop.
func TestToggleConvergesToBestStatic(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	s := toggle(Params{Calib: cal, Dur: 500 * time.Millisecond, Seed: 7, Rates: []float64{10000, 50000}}).run()
	off, on, dyn := col[time.Duration](t, s, "off"), col[time.Duration](t, s, "on"), col[time.Duration](t, s, "dynamic")
	share := col[float64](t, s, "on-share") // percent
	slo := cal.SLO

	// The paper's success criterion is its own policy statement:
	// "maximize throughput as long as latency remains below a specified
	// threshold" (§2). At 10k both static modes meet the SLO, so the
	// toggler may sit anywhere; at 50k only batch-on does, so the
	// toggler must live there and keep the run under the SLO despite
	// exploration excursions through the unstable mode.
	if dyn[0] > slo {
		t.Errorf("at 10k dynamic %v violates the %v SLO", dyn[0], slo)
	}
	if best := min(off[0], on[0]); dyn[0] > 5*best/2 {
		t.Errorf("at 10k dynamic %v vs best static %v", dyn[0], best)
	}
	if off[1] <= slo {
		t.Errorf("at 50k static-off %v unexpectedly meets the SLO", off[1])
	}
	if dyn[1] > slo {
		t.Errorf("at 50k dynamic %v violates the %v SLO (static-on achieves %v)", dyn[1], slo, on[1])
	}
	if share[1] < 60 {
		t.Errorf("at 50k batch-on residency = %.0f%%, want > 60%%", share[1])
	}
	if dyn[1]*5 > off[1] {
		t.Errorf("at 50k dynamic %v should be >=5x below static-off %v", dyn[1], off[1])
	}
	checkRenders(t, s)
}

// TestHintsBeatKernelUnits asserts §3.3's point: with a syscall-batching
// client on the heterogeneous workload, every kernel-side unit drifts while
// the create/complete hints stay within a few percent of measured.
func TestHintsBeatKernelUnits(t *testing.T) {
	skipIfShort(t)
	s := hintsSweep(Params{Calib: DefaultCalib(), Dur: testDur, Seed: 7, Rates: []float64{10000, 30000}, SyscallBatch: 4}).run()
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	meas, hints := col[time.Duration](t, s, "measured"), col[core.Estimate](t, s, "hints")
	for i, r := range s.Rows {
		rate, on := r.Specs[0].Rate, r.Specs[0].BatchOn
		if hintErr := relErr(estLat(hints[i]), meas[i]); hintErr > 0.05 {
			t.Errorf("rate %v on=%v: hint error %.0f%%, want <= 5%%", rate, on, 100*hintErr)
		}
		for u := tcpsim.Unit(0); u < tcpsim.NumUnits; u++ {
			if kernErr := relErr(estLat(col[core.Estimate](t, s, u.String())[i]), meas[i]); kernErr < 0.15 {
				t.Errorf("rate %v on=%v unit %v: kernel-unit error %.0f%% unexpectedly low — semantic gap should show", rate, on, u, 100*kernErr)
			}
		}
	}
	checkRenders(t, s)
}

// TestAIMDAdaptsCork asserts the §5 AIMD controller decays to NODELAY at
// low load and grows the cork enough to stay near the batch-on latency at
// high load.
func TestAIMDAdaptsCork(t *testing.T) {
	skipIfShort(t)
	s := aimdSweep(Params{Calib: DefaultCalib(), Dur: 500 * time.Millisecond, Seed: 7, Rates: []float64{10000, 60000}}).run()
	off, on, aimd := col[time.Duration](t, s, "off"), col[time.Duration](t, s, "on"), col[time.Duration](t, s, "aimd")
	cork := col[int](t, s, "final cork")

	if cork[0] > 1448 {
		t.Errorf("at 10k final cork = %d, want floor (1448)", cork[0])
	}
	if aimd[0] > off[0]+off[0]/4 {
		t.Errorf("at 10k AIMD %v should track static-off %v", aimd[0], off[0])
	}
	if cork[1] <= 1448 {
		t.Errorf("at 60k final cork = %d, want grown above the floor", cork[1])
	}
	if aimd[1]*5 > off[1] {
		t.Errorf("at 60k AIMD %v should be >=5x below static-off %v", aimd[1], off[1])
	}
	if aimd[1] > 3*on[1] {
		t.Errorf("at 60k AIMD %v vs static-on %v", aimd[1], on[1])
	}
	checkRenders(t, s)
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
