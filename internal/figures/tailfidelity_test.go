package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"e2ebatch/internal/faults"
	"e2ebatch/internal/policy"
)

// TestTailFidelityGolden pins the full tail report byte-for-byte at the
// cmd/fidelity defaults (seed 1, 150 ms). Stored as readable text in
// testdata like the mean report: a drift names the workload, the quantile
// and the hypothesis that moved. Run with E2E_GOLDEN_PRINT=1 to rewrite.
func TestTailFidelityGolden(t *testing.T) {
	skipIfShort(t)
	path := filepath.Join("testdata", "tailfidelity_golden.txt")

	var buf bytes.Buffer
	WriteTailFidelity(&buf, goldenFidelity())

	if os.Getenv("E2E_GOLDEN_PRINT") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("tail fidelity report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestTailFidelityDeterministic renders the tail harness twice from scratch
// and requires byte-identical reports.
func TestTailFidelityDeterministic(t *testing.T) {
	skipIfShort(t)
	render := func() []byte {
		var buf bytes.Buffer
		WriteTailFidelity(&buf, Fidelity(DefaultCalib(), 40*time.Millisecond, 9))
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two tail reports diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestTailFidelityShape asserts the acceptance criteria's structure: every
// workload gets positive, ordered ground-truth quantiles; the composed
// estimator scores every workload with ordered quantiles; the naive baseline
// always scores; and H6–H8 are present with data-backed verdicts. It also
// re-checks H6's substance directly — the estimator's p99 error must not
// exceed the naive baseline's on any workload — so the acceptance bar holds
// even at this shorter duration, not just at the golden's.
func TestTailFidelityShape(t *testing.T) {
	skipIfShort(t)
	out := &shapeFidelity().Tails
	if len(out.Points) < 6 {
		t.Fatalf("zoo too small: %d workloads", len(out.Points))
	}
	for _, pt := range out.Points {
		name := pt.Workload.Name
		if pt.Completed == 0 {
			t.Fatalf("%s: no completed requests", name)
		}
		for qi := 0; qi < 4; qi++ {
			if pt.Truth[qi] <= 0 {
				t.Fatalf("%s: truth quantile %d is %v", name, qi, pt.Truth[qi])
			}
			if qi > 0 && pt.Truth[qi] < pt.Truth[qi-1] {
				t.Fatalf("%s: truth quantiles unordered: %v", name, pt.Truth)
			}
		}
		if !pt.Scored[PredEstimator] {
			t.Errorf("%s: composed estimator abstained", name)
			continue
		}
		e := pt.Pred[PredEstimator]
		if !(e[0] <= e[1] && e[1] <= e[2] && e[2] <= e[3]) {
			t.Errorf("%s: estimator quantiles unordered: %v", name, e)
		}
		if !pt.Scored[PredNaive] {
			t.Errorf("%s: naive baseline abstained", name)
		}
		if pt.Err[PredEstimator][2] > pt.Err[PredNaive][2] {
			t.Errorf("%s: naive p99 error %.1f%% beats estimator %.1f%%",
				name, 100*pt.Err[PredNaive][2], 100*pt.Err[PredEstimator][2])
		}
	}
	if len(out.Hypotheses) != 3 {
		t.Fatalf("want H6–H8, got %d hypotheses", len(out.Hypotheses))
	}
	for i, want := range []string{"H6", "H7", "H8"} {
		h := out.Hypotheses[i]
		if h.ID != want {
			t.Errorf("hypothesis %d = %s, want %s", i, h.ID, want)
		}
		if h.Verdict != "CONFIRMED" && h.Verdict != "REFUTED" {
			t.Errorf("%s: verdict %q", h.ID, h.Verdict)
		}
		if h.Claim == "" || h.Evidence == "" {
			t.Errorf("%s: empty claim or evidence", h.ID)
		}
	}
}

// tailSLOSpec is the shared dynamic setup for the tail-SLO chaos scenarios:
// a p99-targeting toggler with deterministic (ε=0) exploration, started in
// batch-on so a retreat to the safe mode (BatchOff) is an observable switch.
func tailSLOSpec(cal Calib, v1Peer bool) *DynamicSpec {
	d := DefaultDynamicSpec(cal.SLO)
	d.Objective = policy.QuantileUnderSLO{Quantile: 0.99, SLO: cal.SLO}
	d.Toggler.Epsilon = 0
	d.Initial = policy.BatchOn
	d.TailQuantile = 0.99
	d.TailsV1Peer = v1Peer
	return d
}

// TestTailSLOAgainstV1PeerRetreats is the degraded-mode contract for tail
// policies: a p99-targeting controller talking to a v1 peer (counters flow,
// histograms never do) sees a valid mean but an abstaining tail on every
// post-priming tick, and must retreat to its safe mode exactly as if the
// peer's metadata were missing — and hold it, deterministically.
func TestTailSLOAgainstV1PeerRetreats(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	spec := RunSpec{
		Calib:    cal,
		Seed:     11,
		Rate:     30000,
		Duration: 100 * time.Millisecond,
		Dynamic:  tailSLOSpec(cal, true),
	}
	a := Run(spec)
	if a.TotalTicks == 0 {
		t.Fatal("no decision ticks ran")
	}
	if a.TailAbstainedTicks == 0 {
		t.Fatal("no tick recorded a tail abstention against a v1 peer")
	}
	if a.TailAbstainedTicks > a.DegradedTicks {
		t.Fatalf("abstained ticks %d exceed degraded ticks %d — abstention must route degraded",
			a.TailAbstainedTicks, a.DegradedTicks)
	}
	if a.TogglerStats.SafeFallbacks == 0 {
		t.Fatalf("tail-blind policy never fell back to safe mode (stats %+v)", a.TogglerStats)
	}
	if a.FinalMode != policy.BatchOff {
		t.Fatalf("final mode = %v, want the safe default BatchOff held", a.FinalMode)
	}
	b := Run(spec)
	if a.TailAbstainedTicks != b.TailAbstainedTicks || a.TogglerStats != b.TogglerStats {
		t.Fatalf("v1-peer retreat not deterministic: %+v vs %+v", a.TogglerStats, b.TogglerStats)
	}

	// Control: identical run with a v2 peer — the tail composes, abstention
	// stays the exception, and the policy is not pinned in safe mode by
	// abstention alone.
	spec.Dynamic = tailSLOSpec(cal, false)
	c := Run(spec)
	if c.TailAbstainedTicks >= c.TotalTicks/2 {
		t.Fatalf("v2 peer still abstained on %d/%d ticks", c.TailAbstainedTicks, c.TotalTicks)
	}
}

// TestTailSLOUnderMetaDropRetreats reuses the fault plane: a p99-targeting
// policy whose metadata exchange is dropped mid-run (so mean AND tail go
// dark together) must take the same safe-mode retreat, stay sane, and
// reproduce byte-for-byte under its seed.
func TestTailSLOUnderMetaDropRetreats(t *testing.T) {
	skipIfShort(t)
	dur := 120 * time.Millisecond
	plan := &faults.Plan{Name: "tail-metadrop", Events: []faults.Event{
		{Kind: faults.MetaDrop, Start: dur / 4, Dur: 2 * dur, Prob: 1},
	}}
	cal := DefaultCalib()
	spec := RunSpec{
		Calib:    cal,
		Seed:     17,
		Rate:     30000,
		Duration: dur,
		Dynamic:  tailSLOSpec(cal, false),
		Faults:   plan,
	}
	a := Run(spec)
	checkChaosSane(t, "tail-metadrop", a)
	if a.DegradedTicks == 0 {
		t.Fatal("metadata drops never degraded a tail-targeting tick")
	}
	if a.TogglerStats.SafeFallbacks == 0 {
		t.Fatalf("tail policy never fell back under metadata drops (stats %+v)", a.TogglerStats)
	}
	if a.FinalMode != policy.BatchOff {
		t.Fatalf("final mode = %v, want BatchOff held while the exchange is dark", a.FinalMode)
	}
	b := Run(spec)
	if a.TogglerStats != b.TogglerStats || a.DegradedTicks != b.DegradedTicks {
		t.Fatalf("metadrop retreat not deterministic: %+v vs %+v", a.TogglerStats, b.TogglerStats)
	}
}
