package engine

import "testing"

// newAIMD builds an AIMD policy the way every caller gets one: through
// New, which validates the parameters and starts the limit at Min.
func newAIMD(min, max, step int, backoff float64) *AIMDPolicy {
	a := &AIMDPolicy{Min: min, Max: max, Step: step, Backoff: backoff}
	New(Config{AIMD: a}, &scriptPort{})
	return a
}

func TestAIMDIncreasesAdditively(t *testing.T) {
	a := newAIMD(1000, 64000, 1000, 0.5)
	if a.Limit() != 1000 {
		t.Fatalf("initial = %d", a.Limit())
	}
	a.step(true)
	a.step(true)
	if a.Limit() != 3000 {
		t.Fatalf("limit = %d, want 3000", a.Limit())
	}
}

func TestAIMDBacksOffMultiplicatively(t *testing.T) {
	a := newAIMD(1000, 64000, 1000, 0.5)
	for i := 0; i < 15; i++ {
		a.step(true)
	}
	if a.Limit() != 16000 {
		t.Fatalf("limit = %d, want 16000", a.Limit())
	}
	a.step(false)
	if a.Limit() != 8000 {
		t.Fatalf("limit = %d after backoff, want 8000", a.Limit())
	}
}

func TestAIMDRespectsBounds(t *testing.T) {
	a := newAIMD(1000, 4000, 1000, 0.5)
	for i := 0; i < 10; i++ {
		a.step(true)
	}
	if a.Limit() != 4000 {
		t.Fatalf("limit = %d, want capped 4000", a.Limit())
	}
	for i := 0; i < 10; i++ {
		a.step(false)
	}
	if a.Limit() != 1000 {
		t.Fatalf("limit = %d, want floored 1000", a.Limit())
	}
}

// TestAIMDSequence pins the §5 controller's arithmetic on the experiments'
// cork scale: four additive grows from one MSS, then one multiplicative
// decay.
func TestAIMDSequence(t *testing.T) {
	a := newAIMD(1448, 65536, 8192, 0.5)
	for i := 0; i < 4; i++ {
		a.step(true) // SLO violated: batch more
	}
	if got := a.Limit(); got != 34216 {
		t.Fatalf("after growth: %d, want 34216", got)
	}
	if got := a.step(false); got != 17108 { // healthy: back off
		t.Fatalf("after decay: %d, want 17108", got)
	}
}

func TestAIMDPanicsOnBadParams(t *testing.T) {
	for i, f := range []func(){
		func() { newAIMD(0, 10, 1, 0.5) },
		func() { newAIMD(10, 5, 1, 0.5) },
		func() { newAIMD(1, 10, 0, 0.5) },
		func() { newAIMD(1, 10, 1, 1.0) },
		func() { newAIMD(1, 10, 1, 0) },
	} {
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
