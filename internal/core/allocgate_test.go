//go:build !race

// Allocation gate for this package's //e2e:hotpath functions (DESIGN.md
// §13): the tail composition must not feed the GC — the engine's estimator
// runs it once per tick on every connection. Excluded under -race because
// the race runtime's shadow allocations would be charged to the tracked code.

package core

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/qstate"
)

// TestAllocGateTailComposition pins the tail hot path at zero allocations:
// the composition (delta → normalize → 3-way convolution → quantiles, twice
// for the two views) and the histogram differencing it starts from.
func TestAllocGateTailComposition(t *testing.T) {
	local := TailDists{
		Unacked: randDist(1, 6),
		Unread:  randDist(2, 4),
	}
	remote := TailDists{
		Unacked: randDist(3, 5),
		Unread:  randDist(4, 3),
	}
	allocgate.Zero(t, 200, "ComposeTail", func() {
		_ = ComposeTail(&local, &remote, Delays{}, Delays{})
	})
	var prev, cur qstate.WireTails
	cur.Unacked.RecordN(time.Millisecond, 40)
	cur.Unread.RecordN(100*time.Microsecond, 40)
	allocgate.Zero(t, 200, "TailDistsBetween", func() {
		_, _ = TailDistsBetween(&prev, &cur)
	})
}
