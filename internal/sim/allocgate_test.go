//go:build !race

// Allocation gate (DESIGN.md §13) for this package's //e2e:hotpath functions.
// Excluded under -race because the race runtime allocates shadow state that
// allocgate.Zero would charge to the tracked code.

package sim

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
)

// TestAllocGateSimStep pins schedule → fire → re-arm → cancel at 0 allocations
// over a standing population: events are values in the heap, handles are
// values, and a fired or cancelled event's slot is reused.
func TestAllocGateSimStep(t *testing.T) {
	s := New(1)
	var h countHandler
	fn := func() { h.n++ }
	for i := 0; i < 64; i++ {
		s.Post(Time(i), &h, i, nil)
	}
	allocgate.Zero(t, 1000, "schedule/cancel/step", func() {
		s.After(50*time.Nanosecond, fn)
		tm := s.Post(s.Now()+20, &h, 1, &h)
		s.Post(s.Now()+10, &h, 2, nil)
		s.Cancel(tm)
		s.Step()
		s.Step()
	})
	if h.n == 0 {
		t.Fatal("nothing fired")
	}
}

type countHandler struct{ n int }

func (h *countHandler) HandleEvent(int, any) { h.n++ }
