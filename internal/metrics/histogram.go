// Package metrics provides the measurement primitives the experiments rely
// on: a log-bucketed latency histogram (HDR-style, like the one inside the
// Lancet load generator the paper uses), exponentially weighted moving
// averages for the toggling policy (§5 "Toggling Granularity"), and Welford
// online mean/variance.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// histogram layout: values are bucketed with ~1.5% relative error using
// 64 sub-buckets per power of two, covering [1ns, ~292 years]. This mirrors
// the resolution/footprint tradeoff HDR histograms make.
const (
	subBucketBits  = 6
	subBuckets     = 1 << subBucketBits // 64
	histMaxBuckets = (64 - subBucketBits) * subBuckets
)

// Histogram records time.Duration samples with bounded relative error and
// supports exact count/sum plus quantile queries. The zero value is ready to
// use.
type Histogram struct {
	counts [histMaxBuckets]uint64
	count  uint64
	sum    int64 // nanoseconds; may overflow only after ~292 years of samples
	min    int64
	max    int64
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// The exp that shifts v into [subBuckets, 2*subBuckets): v's bit length
	// less the sub-bucket bits and the leading one.
	exp := bits.Len64(uint64(v)) - subBucketBits - 1
	sub := int(v >> uint(exp)) // in [subBuckets, 2*subBuckets)
	return subBuckets + exp*subBuckets + (sub - subBuckets)
}

// bucketLow returns the smallest value mapping to bucket i; used to
// reconstruct quantiles.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := (i - subBuckets) / subBuckets
	sub := (i-subBuckets)%subBuckets + subBuckets
	return int64(sub) << uint(exp)
}

// Record adds one sample. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n samples of d at the cost of one: the batch form for items
// that share a latency. Negative durations count as zero; n of zero adds
// nothing.
func (h *Histogram) RecordN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)] += n
	h.count += n
	h.sum += v * int64(n)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the exact average of recorded samples, 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Min returns the smallest recorded sample, 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded sample, 0 if empty.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the approximate q-quantile (q in [0,1]) with the
// histogram's bucket resolution.
//
// Edge behavior is total and consistent: an empty histogram returns 0 for
// every q; q <= 0 returns Min exactly; q >= 1 returns Max exactly; NaN is
// treated like q <= 0 (clamped to Min) rather than poisoning the rank
// computation. Composition and scoring code may therefore call Quantile
// unconditionally.
//
// Accuracy for interior q: the result is the lower bound of the bucket
// holding the ceil(q·n)-th smallest sample, clamped into [Min, Max]. With 64
// sub-buckets per power of two, bucket width is at most 1/64 of the bucket's
// lower bound, so the returned value v satisfies v <= true quantile <
// v·(1 + 1/64) — a bounded relative error of under 1.5625% (values below
// 64 ns are exact, one bucket per nanosecond).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := bucketLow(i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return time.Duration(lo)
		}
	}
	return h.Max()
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
}
