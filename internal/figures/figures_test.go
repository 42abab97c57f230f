package figures

import (
	"bytes"
	"testing"
	"time"

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

// TestFig2Flip asserts the bare-metal/VM outcome flip at the fixed load:
// same server-side behaviour, opposite best batching mode.
func TestFig2Flip(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	f := Fig2(cal, testDur, 11)
	if !f.Bare.NagleHelps {
		t.Errorf("bare metal: Nagle should help (off=%v on=%v)", f.Bare.LatOff, f.Bare.LatOn)
	}
	if f.VM.NagleHelps {
		t.Errorf("VM client: Nagle should hurt (off=%v on=%v)", f.VM.LatOff, f.VM.LatOn)
	}
	// Figure 2a: the VM client burns noticeably more CPU.
	if f.VM.ClientCPU < 1.3*f.Bare.ClientCPU {
		t.Errorf("VM client CPU %.2f vs bare %.2f: expected a clear increase", f.VM.ClientCPU, f.Bare.ClientCPU)
	}
	// Figure 2b: the server sees the same workload either way.
	ratio := f.VM.ServerCPU / f.Bare.ServerCPU
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("server CPU changed with client config: %.2f vs %.2f", f.VM.ServerCPU, f.Bare.ServerCPU)
	}
	var buf bytes.Buffer
	WriteFig2(&buf, f)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestFig4aShape asserts the headline claims of Figure 4a on a coarse grid:
// batching hurts at low load, wins beyond a cutoff, extends the SLO range,
// and the estimates locate the same cutoff.
func TestFig4aShape(t *testing.T) {
	skipIfShort(t)
	f := Fig4a(DefaultCalib(), []float64{5000, 20000, 35000, 50000, 70000, 85000}, testDur, 7)

	low := f.Points[0] // 5 kRPS
	if low.On.Measured <= low.Off.Measured {
		t.Errorf("at 5k: batching should hurt (off=%v on=%v)", low.Off.Measured, low.On.Measured)
	}
	high := f.Points[4] // 70 kRPS
	if high.On.Measured*3 >= high.Off.Measured {
		t.Errorf("at 70k: batching should win by >3x (off=%v on=%v)", high.Off.Measured, high.On.Measured)
	}

	if f.MeasuredCutoff == 0 || f.EstimatedCutoff == 0 {
		t.Fatalf("cutoffs missing: measured=%v estimated=%v", f.MeasuredCutoff, f.EstimatedCutoff)
	}
	if !f.CutoffsCoincide(15000) {
		t.Errorf("cutoffs diverge: measured=%v estimated=%v", f.MeasuredCutoff, f.EstimatedCutoff)
	}

	if f.OffSLOMax > 40000 {
		t.Errorf("off-mode SLO range extends to %v, want <= 40k", f.OffSLOMax)
	}
	if f.OnSLOMax < 70000 {
		t.Errorf("on-mode SLO range only %v, want >= 70k", f.OnSLOMax)
	}
	if f.Extension < 1.5 {
		t.Errorf("SLO extension %.2fx, want >= 1.5x (paper: 1.93x)", f.Extension)
	}
	if f.LatencyGain < 1.2 {
		t.Errorf("latency gain at boundary %.2fx, want >= 1.2x (paper: 2.80x)", f.LatencyGain)
	}

	// Estimates must be valid at every swept point and track the
	// measured value tightly once queueing dominates.
	for _, p := range f.Points {
		for _, c := range []Fig4Cell{p.Off, p.On} {
			if !c.Est[tcpsim.UnitBytes].Valid {
				t.Fatalf("invalid byte estimate at %v", p.Rate)
			}
		}
	}
	sat := f.Points[5].Off // 85 kRPS, deep saturation
	if e := relErr(sat.Est[tcpsim.UnitBytes].Latency, sat.Measured); e > 0.30 {
		t.Errorf("saturated estimate error %.0f%%, want <= 30%%", 100*e)
	}

	var buf bytes.Buffer
	WriteFig4(&buf, f)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestFig4bRuns asserts the 95:5 mix sweep produces valid estimates, a
// cutoff, and per-kind splits.
func TestFig4bRuns(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	f := Fig4b(cal, []float64{5000, 35000, 50000}, testDur, 7)
	if f.MeasuredCutoff == 0 {
		t.Fatal("no measured cutoff on the mixed sweep")
	}
	for _, p := range f.Points {
		if p.Off.SetMeasured == 0 || p.Off.GetMeasured == 0 {
			t.Fatalf("per-kind latencies missing at %v", p.Rate)
		}
		if !p.Off.Est[tcpsim.UnitBytes].Valid || !p.On.Est[tcpsim.UnitBytes].Valid {
			t.Fatalf("invalid estimate at %v", p.Rate)
		}
	}
	// GETs (tiny requests, 16 KiB responses) must be cheaper than SETs
	// without batching at low load.
	if low := f.Points[0]; low.Off.GetMeasured >= low.Off.SetMeasured {
		t.Errorf("at 5k off: GET %v should beat SET %v", low.Off.GetMeasured, low.Off.SetMeasured)
	}
}

// TestToggleConvergesToBestStatic asserts the dynamic toggler lands near
// whichever static mode wins at each load — the paper's core "what if"
// turned into a closed loop.
func TestToggleConvergesToBestStatic(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	out := Toggle(cal, []float64{10000, 50000}, 500*time.Millisecond, 7)
	lowP, highP := out.Points[0], out.Points[1]

	// The paper's success criterion is its own policy statement:
	// "maximize throughput as long as latency remains below a specified
	// threshold" (§2). At 10k both static modes meet the SLO, so the
	// toggler may sit anywhere; at 50k only batch-on does, so the
	// toggler must live there and keep the run under the SLO despite
	// exploration excursions through the unstable mode.
	if lowP.Dynamic > out.SLO {
		t.Errorf("at 10k dynamic %v violates the %v SLO", lowP.Dynamic, out.SLO)
	}
	best := lowP.Off
	if lowP.On < best {
		best = lowP.On
	}
	if lowP.Dynamic > 5*best/2 {
		t.Errorf("at 10k dynamic %v vs best static %v", lowP.Dynamic, best)
	}
	if highP.Off <= out.SLO {
		t.Errorf("at 50k static-off %v unexpectedly meets the SLO", highP.Off)
	}
	if highP.Dynamic > out.SLO {
		t.Errorf("at 50k dynamic %v violates the %v SLO (static-on achieves %v)", highP.Dynamic, out.SLO, highP.On)
	}
	if highP.OnShare < 0.6 {
		t.Errorf("at 50k batch-on residency = %.0f%%, want > 60%%", 100*highP.OnShare)
	}
	if highP.Dynamic*5 > highP.Off {
		t.Errorf("at 50k dynamic %v should be >=5x below static-off %v", highP.Dynamic, highP.Off)
	}
	var buf bytes.Buffer
	WriteToggle(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestHintsBeatKernelUnits asserts §3.3's point: with a syscall-batching
// client on the heterogeneous workload, every kernel-side unit drifts while
// the create/complete hints stay within a few percent of measured.
func TestHintsBeatKernelUnits(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	out := Hints(cal, []float64{10000, 30000}, testDur, 7, 4)
	if len(out.Rows) != 4 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	for _, r := range out.Rows {
		if hintErr := relErr(r.Hints, r.Measured); hintErr > 0.05 {
			t.Errorf("rate %v on=%v: hint error %.0f%%, want <= 5%%", r.Rate, r.BatchOn, 100*hintErr)
		}
		for u := 0; u < tcpsim.NumUnits; u++ {
			if kernErr := relErr(r.ByUnit[u], r.Measured); kernErr < 0.15 {
				t.Errorf("rate %v on=%v unit %v: kernel-unit error %.0f%% unexpectedly low — semantic gap should show", r.Rate, r.BatchOn, tcpsim.Unit(u), 100*kernErr)
			}
		}
	}
	var buf bytes.Buffer
	WriteHints(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestAIMDAdaptsCork asserts the §5 AIMD controller decays to NODELAY at
// low load and grows the cork enough to stay near the batch-on latency at
// high load.
func TestAIMDAdaptsCork(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	out := AIMD(cal, []float64{10000, 60000}, 500*time.Millisecond, 7)
	low, high := out.Rows[0], out.Rows[1]

	if low.FinalCork > 1448 {
		t.Errorf("at 10k final cork = %d, want floor (1448)", low.FinalCork)
	}
	if low.AIMDMean > low.Off+low.Off/4 {
		t.Errorf("at 10k AIMD %v should track static-off %v", low.AIMDMean, low.Off)
	}
	if high.FinalCork <= 1448 {
		t.Errorf("at 60k final cork = %d, want grown above the floor", high.FinalCork)
	}
	if high.AIMDMean*5 > high.Off {
		t.Errorf("at 60k AIMD %v should be >=5x below static-off %v", high.AIMDMean, high.Off)
	}
	if high.AIMDMean > 3*high.On {
		t.Errorf("at 60k AIMD %v vs static-on %v", high.AIMDMean, high.On)
	}
	var buf bytes.Buffer
	WriteAIMD(&buf, out)
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
