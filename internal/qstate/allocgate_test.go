//go:build !race

// Allocation gates are the runtime layer of the hot-path allocation
// discipline (DESIGN.md §13): the hotpath analyzer rejects allocation-forcing
// syntax, `e2elint -escapes` asks the compiler's escape analysis, and these
// tests pin the *observed* allocation count of every //e2e:hotpath function
// in this package at zero. Excluded under -race because the race runtime
// allocates shadow state that allocgate.Zero would charge to the tracked code.

package qstate

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
)

func allocGate(t *testing.T, name string, f func()) {
	t.Helper()
	allocgate.Zero(t, 200, name, f)
}

func TestAllocGateTracker(t *testing.T) {
	tr := NewTracker(0)
	now := Time(0)
	allocGate(t, "Tracker.Track", func() {
		now++
		tr.Track(now, 1)
		now++
		tr.Track(now, -1)
	})
	allocGate(t, "Tracker.Snapshot", func() {
		now++
		_ = tr.Snapshot(now)
	})
	allocGate(t, "Tracker.Peek", func() { _ = tr.Peek() })
	allocGate(t, "Tracker.Size", func() { _ = tr.Size() })
}

func TestAllocGateDelayHist(t *testing.T) {
	var h DelayHist
	d := time.Duration(0)
	allocGate(t, "DelayHist.Record", func() {
		d += 977 * time.Nanosecond
		h.Record(d)
	})
	allocGate(t, "DelayHist.RecordN", func() { h.RecordN(d, 3) })
	allocGate(t, "DelayBucket", func() { _ = DelayBucket(d) })
	var prev DelayHist
	allocGate(t, "DelayDeltas", func() { _, _, _ = DelayDeltas(&prev, &h) })
}

func TestAllocGateDelayTracker(t *testing.T) {
	var dt DelayTracker
	now := Time(0)
	allocGate(t, "DelayTracker.Track", func() {
		now += 1000
		dt.Track(now, 2)
		now += 1000
		dt.Track(now, -2)
	})
}
