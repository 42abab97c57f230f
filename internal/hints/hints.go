// Package hints implements the paper's application-cooperation interface
// (§3.3): a minimalist create(n)/complete(n) API over a userspace-maintained
// queue-state structure.
//
// A cooperative client calls Create when it issues requests and Complete
// when it receives the matching responses. The single logical queue tracked
// this way is "requests outstanding end to end", so Little's law applied to
// it yields exactly the application-perceived latency and throughput — no
// kernel queue monitoring needed, and the server needs not share anything
// (top of the paper's Figure 3).
//
// In the paper the structure would be handed to send(2) via ancillary data;
// here the Wire method produces the same 3-tuple the kernel would forward.
package hints

import (
	"e2ebatch/internal/qstate"
)

// Clock supplies the current time in nanoseconds; virtual inside the
// simulator, wall-clock in the real-socket harness.
type Clock func() qstate.Time

// Tracker is the userspace queue state behind the create/complete API.
// It is safe for concurrent use: the counters live in a qstate.Tracker,
// which also absorbs the timestamp inversions concurrent clock reads can
// produce.
type Tracker struct {
	clock Clock
	st    *qstate.Tracker
}

// NewTracker returns a tracker using the given clock. It panics on a nil
// clock — silently reading zero times would corrupt every estimate.
func NewTracker(clock Clock) *Tracker {
	if clock == nil {
		panic("hints: nil clock")
	}
	return &Tracker{clock: clock, st: qstate.NewTracker(clock())}
}

// Create records that n requests were just issued and returns the clock
// reading it recorded them at, so a caller that stamps the requests itself
// needs no second reading.
func (t *Tracker) Create(n int) qstate.Time {
	now := t.clock()
	if n > 0 {
		t.st.Track(now, int64(n))
	}
	return now
}

// Complete records that n requests just completed (their responses were
// received and consumed) and returns the clock reading it recorded them at.
// Completing more requests than are outstanding panics — it means the
// application's bookkeeping is broken and every estimate derived from this
// tracker would be garbage.
func (t *Tracker) Complete(n int) qstate.Time {
	now := t.clock()
	if n > 0 {
		t.st.Track(now, -int64(n))
	}
	return now
}

// Outstanding returns the number of requests issued but not completed.
func (t *Tracker) Outstanding() int64 {
	return t.st.Size()
}

// Snapshot captures the 3-tuple at the current clock time.
func (t *Tracker) Snapshot() qstate.Snapshot {
	return t.st.Snapshot(t.clock())
}

// Wire returns the snapshot in the 12-byte wire form a kernel would attach
// to metadata exchanges on the application's behalf.
func (t *Tracker) Wire() qstate.WireQueue {
	return qstate.ToWire(t.Snapshot())
}
