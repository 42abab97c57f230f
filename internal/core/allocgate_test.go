//go:build !race

// Allocation gate for this package's //e2e:hotpath functions (DESIGN.md
// §13): Estimator.Update must not feed the GC — it runs once per tick on
// every connection. Excluded under -race because the race runtime's shadow
// allocations would be charged to the tracked code.

package core

import (
	"testing"
	"time"

	"e2ebatch/internal/qstate"
)

// TestAllocGateTailComposition pins the tail hot path at zero allocations:
// the full Estimator.Update with tail histograms on both sides (delta →
// normalize → 3-way convolution → quantiles, twice for the two views), plus
// the composition pieces in isolation.
func TestAllocGateTailComposition(t *testing.T) {
	var e Estimator
	now := qstate.Time(0)
	n := uint32(0)
	update := func() {
		now += qstate.Time(100 * time.Millisecond)
		n += 25
		_ = e.Update(tailSample(now, 400*time.Microsecond, 900*time.Microsecond, n))
	}
	update() // prime
	if a := testing.AllocsPerRun(200, update); a != 0 {
		t.Errorf("Estimator.Update with tails allocates %v per op, want 0 (//e2e:hotpath)", a)
	}

	local := TailDists{
		Unacked: randDist(1, 6),
		Unread:  randDist(2, 4),
	}
	remote := TailDists{
		Unacked: randDist(3, 5),
		Unread:  randDist(4, 3),
	}
	if a := testing.AllocsPerRun(200, func() {
		_ = ComposeTail(&local, &remote, Delays{}, Delays{})
	}); a != 0 {
		t.Errorf("ComposeTail allocates %v per op, want 0 (//e2e:hotpath)", a)
	}
	var prev, cur qstate.WireTails
	cur.Unacked.RecordN(time.Millisecond, 40)
	cur.Unread.RecordN(100*time.Microsecond, 40)
	if a := testing.AllocsPerRun(200, func() {
		_, _ = TailDistsBetween(&prev, &cur)
	}); a != 0 {
		t.Errorf("TailDistsBetween allocates %v per op, want 0 (//e2e:hotpath)", a)
	}
}
