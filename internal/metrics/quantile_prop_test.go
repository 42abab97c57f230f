package metrics

// Property tests pinning Histogram.Quantile's contract at the boundaries
// and over random inputs. The audit they encode:
//
//   - empty histogram: every quantile is 0 (no panic, no NaN rank math);
//   - q <= 0 is Min, q >= 1 is Max, out-of-range q clamps;
//   - a single sample is returned exactly for every q — the bucket lower
//     bound alone would under-report coarse-bucket values, and the
//     min/max clamp is what repairs it;
//   - Quantile is monotone nondecreasing in q (rank and bucket lower
//     bounds are both nondecreasing, and the clamp preserves order);
//   - the returned value brackets the exact rank-quantile from below
//     within one bucket width: exact is in [got, got + got>>6 + 1].

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// randomSamples draws n durations spanning every bucket regime: exact
// sub-64ns buckets, mid-range log-uniform values, and occasional huge
// outliers in the coarsest buckets.
func randomSamples(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0: // exact buckets: [0, 64) ns
			out[i] = time.Duration(rng.Intn(64))
		case 1: // coarse buckets: up to ~3 years
			out[i] = time.Duration(rng.Int63n(int64(26000 * time.Hour)))
		default: // log-uniform over [1us, 10s]
			out[i] = time.Duration(math.Exp(rng.Float64()*math.Log(1e7)) * 1e3)
		}
	}
	return out
}

func TestHistogramQuantileMonotonicProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for _, d := range randomSamples(rng, 1+rng.Intn(5000)) {
			h.Record(d)
		}
		// A dense fixed grid plus random interior points, in order.
		qs := []float64{-1, 0, 1e-9}
		for q := 0.01; q < 1; q += 0.01 {
			qs = append(qs, q)
		}
		qs = append(qs, 1-1e-12, 1, 2)
		for i := 1; i < len(qs); i++ {
			lo, hi := h.Quantile(qs[i-1]), h.Quantile(qs[i])
			if hi < lo {
				t.Fatalf("seed %d: Quantile(%v)=%v > Quantile(%v)=%v",
					seed, qs[i-1], lo, qs[i], hi)
			}
			if lo < h.Min() || hi > h.Max() {
				t.Fatalf("seed %d: quantiles escaped [Min,Max]: %v %v not in [%v,%v]",
					seed, lo, hi, h.Min(), h.Max())
			}
		}
	}
}

func TestHistogramQuantileBracketsExactProperty(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		samples := randomSamples(rng, 2000)
		var h Histogram
		for _, d := range samples {
			h.Record(d)
		}
		slices.Sort(samples)
		for q := 0.005; q < 1; q += 0.005 {
			rank := int(math.Ceil(q * float64(len(samples))))
			if rank < 1 {
				rank = 1
			}
			exact, got := samples[rank-1], h.Quantile(q)
			// One bucket width: exact buckets below 64ns are width 1 (the
			// +1), wider buckets have width <= lower-bound/64 (the >>6).
			if got > exact || exact > got+got>>6+1 {
				t.Fatalf("seed %d q=%v: Quantile=%v does not bracket exact %v within one bucket",
					seed, q, got, exact)
			}
		}
	}
}

func TestHistogramQuantileSingleSampleExact(t *testing.T) {
	// Across magnitudes, including values deep inside coarse buckets where
	// the raw bucket lower bound would round 999999h down: one sample must
	// be every quantile, exactly.
	for _, d := range []time.Duration{
		0, 1, 63, 64, 100, 12345,
		123 * time.Microsecond, 7 * time.Millisecond, 999 * time.Millisecond,
		3*time.Hour + 7*time.Nanosecond,
	} {
		var h Histogram
		h.Record(d)
		for _, q := range []float64{-1, 0, 0.001, 0.25, 0.5, 0.75, 0.999, 1, 5} {
			if got := h.Quantile(q); got != d {
				t.Fatalf("single sample %v: Quantile(%v) = %v", d, q, got)
			}
		}
	}
}

func TestHistogramQuantileTwoSamplesSplit(t *testing.T) {
	// With two samples the rank math splits exactly at q=0.5: ranks 1 and
	// 2, i.e. min for q in (0,0.5] and (approximately) max above.
	var h Histogram
	lo, hi := 100*time.Microsecond, 80*time.Millisecond
	h.Record(lo)
	h.Record(hi)
	if got := h.Quantile(0.5); got != lo {
		t.Fatalf("Quantile(0.5) = %v, want min %v", got, lo)
	}
	got := h.Quantile(0.500001)
	if got <= lo || got > hi || hi > got+got>>6+1 {
		t.Fatalf("Quantile(0.5+) = %v, want max %v within one bucket", got, hi)
	}
	if h.Quantile(1) != hi {
		t.Fatalf("Quantile(1) = %v, want %v", h.Quantile(1), hi)
	}
}
