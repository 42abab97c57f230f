package qstate

import (
	"math"
	"math/bits"
	"time"
)

// Per-queue delay histograms (tail-estimation extension).
//
// GetAvgs yields the *mean* queuing delay over an interval; composing tails
// (p99, p999) additionally needs each queue's delay *distribution*. DelayHist
// is the fixed-bucket, zero-allocation histogram recorded next to the State
// counters: like Total and Integral it is cumulative and wrapping, so two
// successive snapshots subtract (bucket-wise, modulo 2^32) into the interval
// distribution, and reducing the exchange frequency loses resolution but not
// correctness — the same property the 36-byte counters have.
//
// Bucket layout: bucket 0 is the underflow bucket [0, 1µs); buckets 1..64 are
// 16 octaves × 4 sub-buckets spanning [1µs, 65.536ms) with boundaries at
// 2^o·(1+j/4) µs; bucket 65 is the overflow bucket [65.536ms, ∞). The
// sub-octave split bounds the quantization: a value reported at its bucket
// midpoint is within 12.5% of the true value (underflow and overflow buckets
// excepted), which is what the composition rule in internal/core inherits as
// its per-stage resolution floor.

// DelayBuckets is the number of histogram buckets: underflow + 16 octaves ×
// 4 sub-buckets + overflow.
const DelayBuckets = 66

// delayOctaves is the number of power-of-two octaves between the underflow
// and overflow buckets.
const delayOctaves = 16

// DelayHist is a cumulative, wrapping per-queue delay histogram. The zero
// value is empty and ready to use. Counts wrap at 2^32 like the wire
// counters; use DelayDeltas for wrap-aware interval differences.
type DelayHist struct {
	Counts [DelayBuckets]uint32
}

// DelayBucket returns the bucket index for one observed delay. Negative
// delays (clock clamping upstream) land in the underflow bucket.
//
//e2e:hotpath
func DelayBucket(d time.Duration) int {
	if d < 1000 {
		return 0
	}
	o := bits.Len64(uint64(d)/1000) - 1
	if o >= delayOctaves {
		return DelayBuckets - 1
	}
	base := int64(1000) << o
	quarter := int64(250) << o
	sub := (int64(d) - base) / quarter
	if sub > 3 {
		sub = 3
	}
	return 1 + 4*o + int(sub)
}

// DelayBucketLow returns the inclusive lower bound of bucket i.
func DelayBucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	if i >= DelayBuckets-1 {
		return time.Duration(1000) << delayOctaves
	}
	o := (i - 1) / 4
	j := int64(i-1) % 4
	return time.Duration((int64(1000) << o) + j*(int64(250)<<o))
}

// DelayBucketHigh returns the exclusive upper bound of bucket i. The
// overflow bucket is unbounded; its reported "high" is twice its lower bound
// so midpoints stay finite.
func DelayBucketHigh(i int) time.Duration {
	if i >= DelayBuckets-1 {
		return 2 * DelayBucketLow(DelayBuckets-1)
	}
	return DelayBucketLow(i + 1)
}

// DelayBucketMid returns the representative value of bucket i: the midpoint
// of its bounds. Composition sums midpoints, quantile lookups report them.
//
//e2e:hotpath
func DelayBucketMid(i int) time.Duration {
	if i <= 0 {
		return 500 * time.Nanosecond
	}
	if i >= DelayBuckets-1 {
		lo := time.Duration(1000) << delayOctaves
		return lo + lo/2
	}
	o := (i - 1) / 4
	j := int64(i-1) % 4
	lo := (int64(1000) << o) + j*(int64(250)<<o)
	return time.Duration(lo + (int64(125) << o))
}

// Record adds one observation of delay d.
//
//e2e:hotpath
func (h *DelayHist) Record(d time.Duration) {
	h.Counts[DelayBucket(d)]++
}

// RecordN adds n observations of delay d — the batch form used when several
// queued items depart at once with the same residence time.
//
//e2e:hotpath
func (h *DelayHist) RecordN(d time.Duration, n uint32) {
	h.Counts[DelayBucket(d)] += n
}

// Merge adds other's counts into h bucket-wise (wrapping, like every other
// accumulation on the wire counters) — the fleet rollup: per-connection
// histograms recorded independently on their read loops merge into one
// group distribution at report time.
func (h *DelayHist) Merge(other *DelayHist) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
}

// Quantile returns the q-quantile of the recorded distribution as the
// holding bucket's midpoint (within 12.5% of the true value away from the
// under/overflow buckets, like every DelayHist read). q at or below 0
// reports the first populated bucket, q at or above 1 the last; an empty
// histogram reports 0.
func (h *DelayHist) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	last := 0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		last = i
		cum += uint64(c)
		if cum >= rank {
			return DelayBucketMid(i)
		}
	}
	return DelayBucketMid(last)
}

// Count returns the (wrapped) total number of recorded observations.
func (h *DelayHist) Count() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += uint64(c)
	}
	return t
}

// DelayDeltas subtracts two successive cumulative histograms of the same
// queue into the interval histogram, wrap-aware per bucket. It returns the
// per-bucket deltas, their sum, and ok=false when any bucket moved backwards
// (mod 2^32) — the signature of reordered or duplicated exchanges, mirroring
// WireAvgs' rejection rule.
//
//e2e:hotpath
func DelayDeltas(prev, now *DelayHist) (DelayHist, uint64, bool) {
	var d DelayHist
	var total uint64
	for i := range d.Counts {
		c := now.Counts[i] - prev.Counts[i] // modular
		if c > 1<<31 {
			return DelayHist{}, 0, false
		}
		d.Counts[i] = c
		total += uint64(c)
	}
	return d, total, true
}

// WireTails bundles the three per-queue delay histograms an endpoint shares
// with its peer, in the same fixed order as WireState.
type WireTails struct {
	Unacked  DelayHist
	Unread   DelayHist
	AckDelay DelayHist
}

// delayTrackerEvents bounds DelayTracker's memory: at most this many
// distinct-arrival-time cohorts are outstanding; beyond that the two oldest
// cohorts merge (keeping the older timestamp, so reported delays only ever
// round up — conservative for tail SLOs).
const delayTrackerEvents = 256

// delayEvent is one arrival cohort: every item with arrival index ≤ upto
// (and > the previous event's upto) arrived at time at.
type delayEvent struct {
	upto int64 // cumulative arrivals covered through this cohort
	at   Time
}

// DelayTracker attributes exact per-item residence times in a FIFO queue
// using fixed memory. Arrivals append (or extend) a cohort in a ring of
// delayTrackerEvents entries; departures consume cohorts front-to-back,
// recording now−arrival into a DelayHist. For a FIFO queue the attribution
// is exact until the ring saturates; past that the oldest cohorts merge and
// delays are overestimated, never under.
//
// Like State, a DelayTracker is not safe for concurrent use; wrap it the way
// Tracker wraps State when sharing across goroutines.
type DelayTracker struct {
	hist     DelayHist
	ring     [delayTrackerEvents]delayEvent
	head, n  int
	arrived  int64
	departed int64
}

// Track mirrors State.Track's sign convention: nitems > 0 records an arrival
// cohort at time now, nitems < 0 records -nitems departures at time now,
// and 0 is a no-op (snapshot forcing does not touch delay state).
//
//e2e:hotpath
func (t *DelayTracker) Track(now Time, nitems int64) {
	if nitems > 0 {
		t.arrive(now, nitems)
	} else if nitems < 0 {
		t.depart(now, -nitems)
	}
}

//e2e:hotpath
func (t *DelayTracker) arrive(now Time, n int64) {
	t.arrived += n
	if t.n > 0 {
		last := &t.ring[(t.head+t.n-1)%delayTrackerEvents]
		if last.at == now {
			last.upto = t.arrived
			return
		}
	}
	if t.n == delayTrackerEvents {
		// Ring full: merge the two oldest cohorts. The merged cohort keeps
		// the older timestamp, so every item in it reports a delay at least
		// as large as its true one.
		first := t.ring[t.head].at
		t.head = (t.head + 1) % delayTrackerEvents
		t.ring[t.head].at = first
		t.n--
	}
	t.ring[(t.head+t.n)%delayTrackerEvents] = delayEvent{upto: t.arrived, at: now}
	t.n++
}

//e2e:hotpath
func (t *DelayTracker) depart(now Time, n int64) {
	for n > 0 {
		if t.n == 0 {
			// Departures beyond recorded arrivals: instrumentation drift
			// (State.Track would have panicked first in the paired use).
			// Record them with zero residence rather than corrupting state.
			t.hist.RecordN(0, clampCount(n))
			t.departed += n
			return
		}
		ev := &t.ring[t.head]
		avail := ev.upto - t.departed
		if avail <= 0 {
			t.head = (t.head + 1) % delayTrackerEvents
			t.n--
			continue
		}
		take := n
		if take > avail {
			take = avail
		}
		d := time.Duration(now - ev.at)
		if d < 0 {
			d = 0
		}
		t.hist.RecordN(d, clampCount(take))
		t.departed += take
		n -= take
		if t.departed >= ev.upto {
			t.head = (t.head + 1) % delayTrackerEvents
			t.n--
		}
	}
}

//e2e:hotpath
func clampCount(n int64) uint32 {
	if n > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(n)
}

// Hist returns the cumulative delay histogram recorded so far: the tracker's
// own, which the next Track updates, so a caller that keeps it copies it once,
// straight into its destination.
func (t *DelayTracker) Hist() *DelayHist { return &t.hist }

// Outstanding returns the number of items currently tracked as queued.
func (t *DelayTracker) Outstanding() int64 { return t.arrived - t.departed }
