package policy

import (
	"math/rand"
	"testing"
	"time"
)

func TestPreferLatencyOrdering(t *testing.T) {
	o := PreferLatency{}
	if o.Score(100*time.Microsecond, 1) <= o.Score(200*time.Microsecond, 1e9) {
		t.Fatal("lower latency must beat higher regardless of throughput")
	}
	if o.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestPreferThroughputOrdering(t *testing.T) {
	o := PreferThroughput{}
	if o.Score(time.Second, 100) <= o.Score(time.Nanosecond, 50) {
		t.Fatal("higher throughput must win regardless of latency")
	}
}

func TestSLOObjectiveLexicographic(t *testing.T) {
	o := ThroughputUnderSLO{SLO: 500 * time.Microsecond}
	meets := o.Score(400*time.Microsecond, 10)
	meetsMore := o.Score(499*time.Microsecond, 20)
	violates := o.Score(600*time.Microsecond, 1e9)
	if meets <= violates || meetsMore <= violates {
		t.Fatal("SLO-meeting must beat SLO-violating")
	}
	if meetsMore <= meets {
		t.Fatal("within SLO, throughput must decide")
	}
	worse := o.Score(2*time.Millisecond, 1e9)
	if violates <= worse {
		t.Fatal("smaller violation must beat larger violation")
	}
}

func TestSLOObjectiveZeroSLO(t *testing.T) {
	o := ThroughputUnderSLO{}
	if o.Score(time.Second, 5) != 5 {
		t.Fatal("zero SLO should degrade to throughput")
	}
}

func TestModeOther(t *testing.T) {
	if BatchOn.Other() != BatchOff || BatchOff.Other() != BatchOn {
		t.Fatal("Other() broken")
	}
	if BatchOn.String() == BatchOff.String() {
		t.Fatal("mode strings identical")
	}
}

func newTestToggler(eps float64, initial Mode) *Toggler {
	cfg := DefaultTogglerConfig()
	cfg.Epsilon = eps
	return NewToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond}, cfg, initial, rand.New(rand.NewSource(7)))
}

func TestTogglerConvergesToBetterMode(t *testing.T) {
	// batch-on: 200µs @ 50k; batch-off: 800µs @ 40k (violates SLO).
	tg := newTestToggler(0.1, BatchOff)
	for i := 0; i < 500; i++ {
		if tg.Mode() == BatchOn {
			tg.Observe(200*time.Microsecond, 50000, true)
		} else {
			tg.Observe(800*time.Microsecond, 40000, true)
		}
	}
	// Count residency over a further window.
	onTicks := 0
	for i := 0; i < 200; i++ {
		var m Mode
		if tg.Mode() == BatchOn {
			m = tg.Observe(200*time.Microsecond, 50000, true)
		} else {
			m = tg.Observe(800*time.Microsecond, 40000, true)
		}
		if m == BatchOn {
			onTicks++
		}
	}
	if onTicks < 160 {
		t.Fatalf("batch-on residency %d/200, want >= 160", onTicks)
	}
}

func TestTogglerTracksRegimeChange(t *testing.T) {
	tg := newTestToggler(0.1, BatchOn)
	feed := func(goodMode Mode, n int) int {
		res := 0
		for i := 0; i < n; i++ {
			if tg.Mode() == goodMode {
				tg.Observe(100*time.Microsecond, 60000, true)
			} else {
				tg.Observe(900*time.Microsecond, 30000, true)
			}
			if tg.Mode() == goodMode {
				res++
			}
		}
		return res
	}
	feed(BatchOn, 300)
	// Regime flips: batching now hurts.
	res := feed(BatchOff, 300)
	if res < 180 {
		t.Fatalf("post-flip residency in new best mode = %d/300", res)
	}
}

func TestTogglerZeroEpsilonNeverExplores(t *testing.T) {
	tg := newTestToggler(0, BatchOff)
	for i := 0; i < 1000; i++ {
		tg.Observe(100*time.Microsecond, 1000, true)
	}
	st := tg.Stats()
	if st.Explorations != 0 {
		t.Fatalf("explorations = %d with ε=0", st.Explorations)
	}
	// The other mode never gets samples, so no switches either.
	if st.Switches != 0 {
		t.Fatalf("switches = %d", st.Switches)
	}
}

func TestTogglerExplorationRate(t *testing.T) {
	cfg := DefaultTogglerConfig()
	cfg.Epsilon = 0.2
	cfg.EpsilonDecay = 0 // constant ε for this test
	cfg.HoldTicks = 0    // measure the raw ε rate without post-switch pinning
	cfg.SkipAfterSwitch = 0
	tg := NewToggler(PreferLatency{}, cfg, BatchOff, rand.New(rand.NewSource(7)))
	const n = 5000
	for i := 0; i < n; i++ {
		tg.Observe(100*time.Microsecond, 1000, true)
	}
	got := float64(tg.Stats().Explorations) / n
	if got < 0.15 || got > 0.25 {
		t.Fatalf("exploration rate = %v, want ~0.2", got)
	}
}

func TestTogglerHoldPinsModeAfterSwitch(t *testing.T) {
	cfg := DefaultTogglerConfig()
	cfg.Epsilon = 1 // always explore when allowed
	cfg.EpsilonDecay = 0
	cfg.HoldTicks = 5
	tg := NewToggler(PreferLatency{}, cfg, BatchOff, rand.New(rand.NewSource(1)))
	m0 := tg.Observe(time.Microsecond, 1, true) // switches, then holds
	if m0 != BatchOn {
		t.Fatalf("first decision = %v, want exploratory switch", m0)
	}
	for i := 0; i < 5; i++ {
		if m := tg.Observe(time.Microsecond, 1, true); m != BatchOn {
			t.Fatalf("hold tick %d: mode = %v, want pinned batch-on", i, m)
		}
	}
	if m := tg.Observe(time.Microsecond, 1, true); m != BatchOff {
		t.Fatalf("post-hold decision = %v, want exploratory switch back", m)
	}
}

func TestTogglerSkipDiscardsPostSwitchSamples(t *testing.T) {
	cfg := DefaultTogglerConfig()
	cfg.Epsilon = 1
	cfg.EpsilonDecay = 0
	cfg.HoldTicks = 0
	cfg.SkipAfterSwitch = 2
	tg := NewToggler(PreferLatency{}, cfg, BatchOff, rand.New(rand.NewSource(1)))
	tg.Observe(time.Microsecond, 1, true) // scores batch-off, switches
	// The next two observations (in batch-on) must be discarded... but
	// each decision also switches (ε=1), rearming the skip window; so
	// no mode ever accumulates further samples.
	for i := 0; i < 10; i++ {
		tg.Observe(time.Microsecond, 1, true)
	}
	if tg.samples[BatchOn] != 0 {
		t.Fatalf("batch-on samples = %d, want 0 (all in skip windows)", tg.samples[BatchOn])
	}
}

func TestTogglerInvalidEstimatesDoNotScore(t *testing.T) {
	tg := newTestToggler(0, BatchOff)
	for i := 0; i < 10; i++ {
		tg.Observe(0, 0, false)
	}
	st := tg.Stats()
	if st.Invalid != 10 {
		t.Fatalf("invalid = %d", st.Invalid)
	}
	if tg.samples[BatchOff] != 0 {
		t.Fatal("mode trusted with zero valid samples")
	}
}

func TestTogglerHysteresisSuppressesFlapping(t *testing.T) {
	cfg := DefaultTogglerConfig()
	cfg.Epsilon = 0.3 // explore a lot to gather both modes' samples
	cfg.Hysteresis = 0.5
	tg := NewToggler(PreferLatency{}, cfg, BatchOff, rand.New(rand.NewSource(3)))
	// Two nearly identical modes (1% apart) — exploitation switches
	// should be rare relative to decisions; exploration accounts for
	// nearly all switching.
	for i := 0; i < 2000; i++ {
		if tg.Mode() == BatchOn {
			tg.Observe(100*time.Microsecond, 1000, true)
		} else {
			tg.Observe(101*time.Microsecond, 1000, true)
		}
	}
	st := tg.Stats()
	// Every switch beyond exploration is an exploitation flap. With 50%
	// hysteresis on a 1% gap there should be almost none: each
	// exploration causes at most 2 switches (out and back).
	if st.Switches > 2*st.Explorations+5 {
		t.Fatalf("switches = %d vs explorations = %d: hysteresis failed", st.Switches, st.Explorations)
	}
}

func TestTogglerPanicsOnBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []func(){
		func() { NewToggler(nil, DefaultTogglerConfig(), BatchOff, rng) },
		func() { NewToggler(PreferLatency{}, DefaultTogglerConfig(), BatchOff, nil) },
		func() {
			cfg := DefaultTogglerConfig()
			cfg.Epsilon = 1.5
			NewToggler(PreferLatency{}, cfg, BatchOff, rng)
		},
		func() {
			cfg := DefaultTogglerConfig()
			cfg.Alpha = 0
			NewToggler(PreferLatency{}, cfg, BatchOff, rng)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestTogglerDegradedFallback: degraded ticks freeze learning, and after
// more than DegradedAfter consecutive ones the toggler retreats to SafeMode
// and stays there until trustworthy estimates resume.
func TestTogglerDegradedFallback(t *testing.T) {
	cfg := TogglerConfig{
		Epsilon: 0, Alpha: 0.3, MinSamples: 3,
		SafeMode: BatchOff, DegradedAfter: 3,
	}
	tog := NewToggler(PreferThroughput{}, cfg, BatchOn, rand.New(rand.NewSource(3)))
	scoreBefore, samplesBefore := tog.score[BatchOn].Value(), tog.samples[BatchOn]
	for i := 0; i < 3; i++ {
		if m := tog.ObserveDegraded(); m != BatchOn {
			t.Fatalf("degraded tick %d switched early to %v", i, m)
		}
	}
	if m := tog.ObserveDegraded(); m != BatchOff {
		t.Fatalf("tolerance exceeded but mode = %v, want safe BatchOff", m)
	}
	st := tog.Stats()
	if st.Degraded != 4 || st.SafeFallbacks != 1 {
		t.Fatalf("stats = %+v, want Degraded 4, SafeFallbacks 1", st)
	}
	if tog.score[BatchOn].Value() != scoreBefore || tog.samples[BatchOn] != samplesBefore {
		t.Fatal("degraded ticks trained the mode scores")
	}
	// Further degraded ticks hold the safe mode without new fallbacks.
	for i := 0; i < 5; i++ {
		if m := tog.ObserveDegraded(); m != BatchOff {
			t.Fatalf("safe mode not held: %v", m)
		}
	}
	if st := tog.Stats(); st.SafeFallbacks != 1 {
		t.Fatalf("SafeFallbacks = %d after holding, want 1", st.SafeFallbacks)
	}
}

// TestTogglerDegradedRunResets: a healthy Observe between degraded ticks
// restarts the tolerance window, so scattered single drops never force the
// safe fallback.
func TestTogglerDegradedRunResets(t *testing.T) {
	cfg := TogglerConfig{
		Epsilon: 0, Alpha: 0.3, MinSamples: 100, // MinSamples high: no score-driven switch
		SafeMode: BatchOff, DegradedAfter: 3,
	}
	tog := NewToggler(PreferThroughput{}, cfg, BatchOn, rand.New(rand.NewSource(4)))
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			tog.ObserveDegraded()
		}
		tog.Observe(time.Millisecond, 1000, true)
	}
	if m := tog.Mode(); m != BatchOn {
		t.Fatalf("scattered degraded ticks forced fallback to %v", m)
	}
	if st := tog.Stats(); st.SafeFallbacks != 0 {
		t.Fatalf("SafeFallbacks = %d, want 0", st.SafeFallbacks)
	}
}

// TestTogglerDegradedAfterZero: zero tolerance retreats on the first
// degraded tick.
func TestTogglerDegradedAfterZero(t *testing.T) {
	cfg := TogglerConfig{Epsilon: 0, Alpha: 0.3, SafeMode: BatchOff}
	tog := NewToggler(PreferThroughput{}, cfg, BatchOn, rand.New(rand.NewSource(5)))
	if m := tog.ObserveDegraded(); m != BatchOff {
		t.Fatalf("mode = %v, want immediate safe fallback", m)
	}
}
