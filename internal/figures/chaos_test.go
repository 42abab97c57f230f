package figures

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"e2ebatch/internal/faults"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/tcpsim"
)

// checkChaosSane rejects the garbage classes a fault must never smuggle
// into a run's outputs: NaN/Inf or negative estimates, negative measured
// latencies, and tick counters that disagree with each other. It does not
// demand accuracy — degraded runs are allowed to be wrong, just not toxic.
func checkChaosSane(t *testing.T, name string, out *RunOut) {
	t.Helper()
	if out.Res.Latency.Mean() < 0 {
		t.Fatalf("%s: negative measured latency %v", name, out.Res.Latency.Mean())
	}
	for u := 0; u < tcpsim.NumUnits; u++ {
		e := out.Est[u]
		if math.IsNaN(e.Throughput) || math.IsInf(e.Throughput, 0) {
			t.Fatalf("%s: non-finite estimate throughput %+v", name, e)
		}
		if e.Latency < 0 || e.Throughput < 0 {
			t.Fatalf("%s: negative estimate %+v", name, e)
		}
	}
	ov := out.Log.Overall(tcpsim.UnitBytes)
	if ov.Latency < 0 || ov.Throughput < 0 {
		t.Fatalf("%s: negative offline overall %+v", name, ov)
	}
	if out.DegradedTicks < 0 || out.DegradedTicks > out.TotalTicks {
		t.Fatalf("%s: degraded ticks %d out of %d total", name, out.DegradedTicks, out.TotalTicks)
	}
	if out.TogglerStats.Degraded != uint64(out.DegradedTicks) {
		t.Fatalf("%s: toggler saw %d degraded ticks, runner counted %d",
			name, out.TogglerStats.Degraded, out.DegradedTicks)
	}
	// Bounded estimator error: under every fault the steady-state estimate,
	// when it claims validity, must stay within two orders of magnitude of
	// the measurement. This is a garbage bound, not an accuracy bound — the
	// paper's accuracy claims are pinned by the fault-free figure tests.
	if e, m := out.Est[tcpsim.UnitBytes], out.Res.Latency.Mean(); e.Valid && m > 10*time.Microsecond {
		if e.Latency > 100*m || e.Latency < m/100 {
			t.Fatalf("%s: estimate %v unmoored from measured %v", name, e.Latency, m)
		}
	}
}

// TestChaosSoakMatrix is the deterministic chaos soak: every standard fault
// plan crossed with load levels, each cell run twice with the same seed and
// required to be deeply identical — fault injection must not perturb the
// simulation's byte-identical-rerun contract — and to produce sane outputs
// (no panics, no NaN, no negative averages). Short mode (the -race gate)
// trims the matrix to the interesting plans at one rate.
func TestChaosSoakMatrix(t *testing.T) {
	plans := faults.Names()
	rates := []float64{20000, 55000}
	dur := 120 * time.Millisecond
	if testing.Short() {
		plans = []string{"loss", "metadrop", "stall", "combo"}
		rates = []float64{30000}
		dur = 50 * time.Millisecond
	}
	cal := DefaultCalib()
	for _, plan := range plans {
		for _, rate := range rates {
			name := fmt.Sprintf("%s/%.0fk", plan, rate/1000)
			t.Run(name, func(t *testing.T) {
				p, err := faults.Standard(plan, dur)
				if err != nil {
					t.Fatal(err)
				}
				spec := RunSpec{
					Calib:    cal,
					Seed:     13,
					Rate:     rate,
					Duration: dur,
					Dynamic:  DefaultDynamicSpec(cal.SLO),
					Faults:   p,
				}
				a := Run(spec)
				checkChaosSane(t, name, a)
				if a.TotalTicks == 0 {
					t.Fatal("no decision ticks ran")
				}
				b := Run(spec)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("rerun diverged under plan %q:\nfirst:  %+v\nsecond: %+v", plan, a.Res, b.Res)
				}
			})
		}
	}
}

// TestDegradedFallbackUnderLossAndMetaDrop pins the issue's acceptance
// behaviour: under a 5% loss burst combined with a heavy metadata-drop
// window, the estimator reports degraded mode (instead of NaN or garbage),
// the policy retreats to and holds its safe default, and the whole run is
// deterministic — the same seed reproduces it byte for byte, -race clean.
func TestDegradedFallbackUnderLossAndMetaDrop(t *testing.T) {
	dur := 200 * time.Millisecond
	if testing.Short() {
		dur = 120 * time.Millisecond
	}
	// Both windows run past the end of the run (including its drain tail):
	// the pin is what the policy does while degradation persists, not how
	// it recovers after.
	plan := &faults.Plan{Name: "loss+metadrop", Events: []faults.Event{
		{Kind: faults.LossBurst, Start: dur / 5, Dur: 2 * dur, Prob: 0.05},
		{Kind: faults.MetaDrop, Start: dur / 5, Dur: 2 * dur, Prob: 1},
	}}
	cal := DefaultCalib()
	spec := RunSpec{
		Calib:    cal,
		Seed:     7,
		Rate:     30000,
		Duration: dur,
		Dynamic:  DefaultDynamicSpec(cal.SLO),
		Faults:   plan,
	}
	a := Run(spec)
	checkChaosSane(t, "loss+metadrop", a)
	if a.DegradedTicks == 0 {
		t.Fatal("estimator never reported degraded mode under metadata drops")
	}
	if a.TogglerStats.SafeFallbacks == 0 {
		t.Fatalf("policy never fell back to its safe default (stats %+v)", a.TogglerStats)
	}
	if a.FinalMode != policy.BatchOff {
		t.Fatalf("final mode = %v, want the safe default BatchOff held", a.FinalMode)
	}
	b := Run(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("acceptance run is not deterministic across reruns")
	}
}
