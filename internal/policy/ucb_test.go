package policy

import (
	"testing"
	"time"
)

func feedUCB(u *Toggler, goodMode Mode, n int) int {
	res := 0
	for i := 0; i < n; i++ {
		if u.Mode() == goodMode {
			u.Observe(150*time.Microsecond, 60000, true)
		} else {
			u.Observe(900*time.Microsecond, 30000, true)
		}
		if u.Mode() == goodMode {
			res++
		}
	}
	return res
}

func TestUCBConvergesToBetterMode(t *testing.T) {
	u := NewUCBToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond}, BatchOff)
	feedUCB(u, BatchOn, 300)
	res := feedUCB(u, BatchOn, 300)
	if res < 240 {
		t.Fatalf("residency in better mode = %d/300", res)
	}
}

func TestUCBProbesLosingModeLogarithmically(t *testing.T) {
	u := NewUCBToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond}, BatchOff)
	feedUCB(u, BatchOn, 2000)
	st := u.Stats()
	// The losing mode gets revisited, but far less than half the time.
	if u.samples[BatchOff] == 0 {
		t.Fatal("losing mode never probed — UCB must keep exploring")
	}
	if u.samples[BatchOff] > u.samples[BatchOn]/4 {
		t.Fatalf("losing mode played %v vs %v: not decaying", u.samples[BatchOff], u.samples[BatchOn])
	}
	if st.Switches == 0 {
		t.Fatal("no switches at all")
	}
}

func TestUCBTracksRegimeChange(t *testing.T) {
	u := NewUCBToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond}, BatchOff)
	feedUCB(u, BatchOn, 400)
	res := feedUCB(u, BatchOff, 800)
	if res < 400 {
		t.Fatalf("post-flip residency = %d/800", res)
	}
}

func TestUCBTriesUnplayedModeFirst(t *testing.T) {
	u := NewUCBToggler(PreferLatency{}, BatchOff)
	u.Observe(100*time.Microsecond, 1, true) // plays batch-off once
	if u.Mode() != BatchOn {
		t.Fatalf("mode = %v, want immediate probe of the unplayed mode", u.Mode())
	}
}

func TestUCBInvalidEstimatesDoNotPlay(t *testing.T) {
	u := NewUCBToggler(PreferLatency{}, BatchOff)
	for i := 0; i < 10; i++ {
		u.Observe(0, 0, false)
	}
	if u.samples[BatchOff] != 0 || u.samples[BatchOn] != 0 {
		t.Fatal("invalid estimates were scored")
	}
	if u.Stats().Invalid != 10 {
		t.Fatalf("invalid = %d", u.Stats().Invalid)
	}
}

func TestUCBNilObjectivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil objective accepted")
		}
	}()
	NewUCBToggler(nil, BatchOff)
}

// TestUCBObserveDegraded mirrors the ε-greedy fallback contract: no plays
// spent on unmeasurable arms, retreat to batch-off after the tolerance.
func TestUCBObserveDegraded(t *testing.T) {
	u := NewUCBToggler(PreferThroughput{}, BatchOn)
	for i := 0; i < 3; i++ {
		if m := u.ObserveDegraded(); m != BatchOn {
			t.Fatalf("degraded tick %d switched early to %v", i, m)
		}
	}
	if m := u.ObserveDegraded(); m != BatchOff {
		t.Fatalf("tolerance exceeded but mode = %v", m)
	}
	st := u.Stats()
	if st.Degraded != 4 || st.SafeFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if u.samples[BatchOn] != 0 || u.samples[BatchOff] != 0 {
		t.Fatalf("degraded ticks consumed bandit plays: %v", u.samples)
	}
	// A healthy observation resets the run.
	u2 := NewUCBToggler(PreferThroughput{}, BatchOn)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			u2.ObserveDegraded()
		}
		u2.Observe(time.Millisecond, 1000, true)
	}
	if st := u2.Stats(); st.SafeFallbacks != 0 {
		t.Fatalf("scattered degraded ticks forced fallback: %+v", st)
	}
}
