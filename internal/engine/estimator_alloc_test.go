//go:build !race

// Allocation gate for the estimator the engine tick runs on every port
// (DESIGN.md §13). Excluded under -race because the race runtime's shadow
// allocations would be charged to the tracked code.

package engine

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/qstate"
)

// TestAllocGateEstimatorUpdate pins the full estimator update with tail
// histograms on both sides (delta → normalize → 3-way convolution →
// quantiles, twice for the two views) at zero allocations.
func TestAllocGateEstimatorUpdate(t *testing.T) {
	var e estimator
	now := qstate.Time(0)
	n := uint32(0)
	update := func() {
		now += qstate.Time(100 * time.Millisecond)
		n += 25
		_ = e.update(tailSample(now, 400*time.Microsecond, 900*time.Microsecond, n), 0)
	}
	update() // prime
	allocgate.Zero(t, 200, "estimator update with tails", update)
}
