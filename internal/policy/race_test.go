package policy

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// stressController hammers a toggler from many goroutines — estimates from
// "many connections" feeding one batching decision — and checks no decision
// was lost. The mutex itself is proven by running under -race.
func stressController(t *testing.T, tg *Toggler) {
	t.Helper()
	const (
		workers   = 8
		decisions = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < decisions; i++ {
				lat := time.Duration(100+rng.Intn(900)) * time.Microsecond
				m := tg.Observe(lat, float64(1000+rng.Intn(9000)), rng.Intn(10) != 0)
				if m != BatchOff && m != BatchOn {
					panic("controller returned an invalid mode")
				}
				// Interleave the read-only surface with decisions.
				_ = tg.Mode()
				_ = tg.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := tg.Stats()
	if want := uint64(workers * decisions); st.Decisions != want {
		t.Fatalf("decisions = %d, want %d (lost updates)", st.Decisions, want)
	}
	if st.Switches > st.Decisions {
		t.Fatalf("switches %d exceed decisions %d", st.Switches, st.Decisions)
	}
}

// TestTogglerConcurrentObserve: the ε-greedy rule under concurrent
// Observe/Mode/Stats. The rng is owned by the toggler, per its contract.
func TestTogglerConcurrentObserve(t *testing.T) {
	tg := NewToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond},
		DefaultTogglerConfig(), BatchOff, rand.New(rand.NewSource(7)))
	stressController(t, tg)
}

// countingSource counts draws from the rng it backs.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// TestUCBTogglerConcurrentObserve: same stress on the UCB1 rule, which must
// consume no randomness — ε-greedy runs share the simulator's source, so a
// draw here would shift every later random number in the run.
func TestUCBTogglerConcurrentObserve(t *testing.T) {
	tg := NewUCBToggler(ThroughputUnderSLO{SLO: 500 * time.Microsecond}, BatchOff)
	src := &countingSource{Source: rand.NewSource(7)}
	tg.rng = rand.New(src)
	stressController(t, tg)
	if src.draws != 0 {
		t.Fatalf("UCB1 decisions drew %d random numbers, want 0", src.draws)
	}
}
