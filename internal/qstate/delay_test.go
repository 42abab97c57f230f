package qstate

import (
	"math/rand"
	"testing"
	"time"
)

// TestDelayBucketBounds: every bucket's [low, high) bounds tile the axis with
// no gaps or overlaps, and DelayBucket maps low, high-1 and the midpoint of
// each bucket back to that bucket.
func TestDelayBucketBounds(t *testing.T) {
	if DelayBucketLow(0) != 0 {
		t.Fatalf("bucket 0 low = %v, want 0", DelayBucketLow(0))
	}
	for i := 0; i < DelayBuckets; i++ {
		lo, hi, mid := DelayBucketLow(i), DelayBucketHigh(i), DelayBucketMid(i)
		if i < DelayBuckets-1 && hi != DelayBucketLow(i+1) {
			t.Fatalf("bucket %d: high %v != next low %v", i, hi, DelayBucketLow(i+1))
		}
		if !(lo <= mid && mid < hi) {
			t.Fatalf("bucket %d: mid %v outside [%v, %v)", i, mid, lo, hi)
		}
		if got := DelayBucket(lo); got != i {
			t.Fatalf("DelayBucket(low %v) = %d, want %d", lo, got, i)
		}
		if got := DelayBucket(mid); got != i {
			t.Fatalf("DelayBucket(mid %v) = %d, want %d", mid, got, i)
		}
		if i < DelayBuckets-1 {
			if got := DelayBucket(hi - 1); got != i {
				t.Fatalf("DelayBucket(high-1 %v) = %d, want %d", hi-1, got, i)
			}
		}
	}
	// Overflow and underflow extremes.
	if got := DelayBucket(-time.Second); got != 0 {
		t.Fatalf("negative delay bucket = %d, want 0", got)
	}
	if got := DelayBucket(time.Hour); got != DelayBuckets-1 {
		t.Fatalf("huge delay bucket = %d, want %d", got, DelayBuckets-1)
	}
}

// TestDelayBucketRelativeError: for every delay in the covered range, the
// bucket midpoint is within 12.5% of the true value — the quantization
// guarantee the composition rule documents.
// FuzzDelayBucket: bucket lookup must be total, in range, and monotone in d.
func FuzzDelayBucket(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(999))
	f.Add(int64(time.Millisecond))
	f.Add(int64(time.Hour))
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, d int64) {
		b := DelayBucket(time.Duration(d))
		if b < 0 || b >= DelayBuckets {
			t.Fatalf("bucket %d out of range for %d", b, d)
		}
		if d >= 0 && d < int64(time.Hour) {
			if b2 := DelayBucket(time.Duration(d) + time.Nanosecond); b2 < b {
				t.Fatalf("bucket not monotone at %d: %d then %d", d, b, b2)
			}
		}
	})
}

func TestDelayBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lo, hi := int64(DelayBucketLow(1)), int64(DelayBucketLow(DelayBuckets-1))
	for i := 0; i < 20000; i++ {
		d := lo + rng.Int63n(hi-lo)
		mid := float64(DelayBucketMid(DelayBucket(time.Duration(d))))
		if rel := (mid - float64(d)) / float64(d); rel > 0.125 || rel < -0.125 {
			t.Fatalf("delay %d: midpoint %v off by %.1f%%", d, mid, 100*rel)
		}
	}
}

// TestDelayHistRecord: Record/RecordN land in the right buckets, Count sums
// them, and DelayDeltas subtracts cumulative snapshots wrap-aware.
func TestDelayHistRecord(t *testing.T) {
	var h DelayHist
	h.Record(0)
	h.Record(999)                  // underflow bucket with 0
	h.RecordN(time.Millisecond, 3) // some interior bucket
	h.Record(time.Minute)          // overflow
	if h.Counts[0] != 2 {
		t.Fatalf("underflow count = %d, want 2", h.Counts[0])
	}
	if b := DelayBucket(time.Millisecond); h.Counts[b] != 3 {
		t.Fatalf("1ms bucket count = %d, want 3", h.Counts[b])
	}
	if h.Counts[DelayBuckets-1] != 1 {
		t.Fatalf("overflow count = %d, want 1", h.Counts[DelayBuckets-1])
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}

	prev := h
	h.RecordN(2*time.Millisecond, 5)
	d, total, ok := DelayDeltas(&prev, &h)
	if !ok || total != 5 {
		t.Fatalf("DelayDeltas = total %d ok %v, want 5 true", total, ok)
	}
	if b := DelayBucket(2 * time.Millisecond); d.Counts[b] != 5 {
		t.Fatalf("delta bucket = %d, want 5", d.Counts[b])
	}
	// Reordered (backwards) snapshots are rejected.
	if _, _, ok := DelayDeltas(&h, &prev); ok {
		t.Fatal("DelayDeltas accepted a backwards snapshot pair")
	}
}

// TestDelayDeltasWrap: cumulative counts that wrap 2^32 between snapshots
// still subtract correctly — the same modular-arithmetic property the wire
// counters have.
func TestDelayDeltasWrap(t *testing.T) {
	var prev, now DelayHist
	prev.Counts[3] = ^uint32(0) - 1 // two below wrap
	now.Counts[3] = 2               // four recorded, wrapped
	d, total, ok := DelayDeltas(&prev, &now)
	if !ok || total != 4 || d.Counts[3] != 4 {
		t.Fatalf("wrap delta = %d (total %d, ok %v), want 4", d.Counts[3], total, ok)
	}
}

// TestDelayTrackerFIFOExact: against a brute-force FIFO queue of explicit
// (arrival time) items, DelayTracker reproduces the exact per-item delay
// histogram for randomized schedules that stay under the ring capacity.
func TestDelayTrackerFIFOExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var dt DelayTracker
		var want DelayHist
		var fifo []Time // arrival time per queued item
		now := Time(0)
		for step := 0; step < 400; step++ {
			now += Time(1 + rng.Int63n(500_000))
			if len(fifo) > 0 && rng.Intn(2) == 0 {
				n := 1 + rng.Intn(len(fifo))
				for _, at := range fifo[:n] {
					want.Record(time.Duration(now - at))
				}
				fifo = fifo[n:]
				dt.Track(now, -int64(n))
			} else {
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					fifo = append(fifo, now)
				}
				dt.Track(now, int64(n))
			}
		}
		if got := *dt.Hist(); got != want {
			t.Fatalf("trial %d: tracker histogram diverged from brute force", trial)
		}
		if dt.Outstanding() != int64(len(fifo)) {
			t.Fatalf("trial %d: outstanding %d, want %d", trial, dt.Outstanding(), len(fifo))
		}
	}
}

// TestDelayTrackerSameTimestampCoalesce: arrivals at the same instant share
// one cohort, so bursts do not consume ring capacity.
func TestDelayTrackerSameTimestampCoalesce(t *testing.T) {
	var dt DelayTracker
	for i := 0; i < 10*delayTrackerEvents; i++ {
		dt.Track(100, 1)
	}
	if dt.n != 1 {
		t.Fatalf("cohorts = %d, want 1", dt.n)
	}
	dt.Track(100+Time(time.Millisecond), -10*delayTrackerEvents)
	h := dt.Hist()
	if b := DelayBucket(time.Millisecond); h.Counts[b] != 10*delayTrackerEvents {
		t.Fatalf("coalesced departures = %d, want %d", h.Counts[b], 10*delayTrackerEvents)
	}
}

// TestDelayTrackerOverflowConservative: when more distinct arrival cohorts
// are outstanding than the ring holds, recorded delays are clamped *upward*
// (older timestamps win in the merge) and no departures are lost.
func TestDelayTrackerOverflowConservative(t *testing.T) {
	var dt DelayTracker
	n := delayTrackerEvents + 100
	for i := 0; i < n; i++ {
		dt.Track(Time(i)*Time(time.Microsecond), 1)
	}
	end := Time(n) * Time(time.Microsecond)
	dt.Track(end, -int64(n))
	h := dt.Hist()
	if got := h.Count(); got != uint64(n) {
		t.Fatalf("recorded %d departures, want %d", got, n)
	}
	// Exact delays run from ~100µs (newest) to ~356µs (oldest). The merged
	// cohorts must never report below the exact minimum delay.
	minExact := time.Duration(end - Time(n-1)*Time(time.Microsecond))
	for i := 0; i < DelayBucket(minExact); i++ {
		if h.Counts[i] != 0 {
			t.Fatalf("bucket %d below exact minimum %v has %d entries", i, minExact, h.Counts[i])
		}
	}
}

// TestDelayTrackerDefensiveUnderflow: departures with no recorded arrivals
// (standalone misuse) record zero-delay items instead of corrupting state.
func TestDelayTrackerDefensiveUnderflow(t *testing.T) {
	var dt DelayTracker
	dt.Track(1000, -3)
	h := dt.Hist()
	if h.Counts[0] != 3 || h.Count() != 3 {
		t.Fatalf("underflow departures = %+v, want 3 zero-delay items", h.Counts[0])
	}
}

// TestDelayTrackerBackwardsClockClamp: a departure timestamped before its
// cohort's arrival (clamped clocks upstream) records zero, not negative.
func TestDelayTrackerBackwardsClockClamp(t *testing.T) {
	var dt DelayTracker
	dt.Track(5000, 1)
	dt.Track(4000, -1) // State.Track would panic; DelayTracker clamps
	if h := dt.Hist(); h.Counts[0] != 1 {
		t.Fatalf("clamped delay bucket = %+v, want underflow", h.Counts)
	}
}
