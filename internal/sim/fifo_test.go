package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives the queue and a plain slice with the same
// random pushes, pops and multi-element drops, and requires the same values
// out, in order, with every consumed slot zeroed (a queue of pointers must not
// pin what it handed out).
func TestFIFOMatchesSliceModel(t *testing.T) {
	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var q FIFO[*int]
		var model []*int
		for op := 0; op < 500; op++ {
			switch {
			case rng.Intn(5) < 3:
				x := new(int)
				q.Push(x)
				model = append(model, x)
			case len(model) > 0 && rng.Intn(2) == 0:
				if got := q.Pop(); got != model[0] {
					t.Fatalf("trial %d op %d: Pop returned the wrong element", trial, op)
				}
				model = model[1:]
			default:
				n := rng.Intn(len(model) + 1)
				live := q.Live()
				for i := 0; i < n; i++ {
					if live[i] != model[i] {
						t.Fatalf("trial %d op %d: Live()[%d] differs from the model", trial, op, i)
					}
				}
				q.Drop(n)
				model = model[n:]
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len %d, model %d", trial, op, q.Len(), len(model))
			}
			for i, x := range q.v[:q.head] {
				if x != nil {
					t.Fatalf("trial %d op %d: consumed slot %d still referenced", trial, op, i)
				}
			}
		}
	}
}

// TestFIFOBacklogBoundsItsArray: with a standing backlog the live part slides
// down in place; the array does not grow with the number of pushes.
func TestFIFOBacklogBoundsItsArray(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	for i := 0; i < 10000; i++ {
		q.Push(i)
		q.Pop()
	}
	if cap(q.v) > 16 {
		t.Fatalf("array grew to cap %d under a 3-element backlog", cap(q.v))
	}
}
