package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the middle two for an even
// count) without reordering the caller's slice; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile by the exclusive method —
// the same one Python's statistics.quantiles(values, n=4) uses, so a spread
// computed here matches the one the driver computes. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - j*4) // taken after the clamp, as Python does
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile picks the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least ten samples beyond it, the guide's rule for a tail
// that is a measurement and not one outlier.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p     float64
		oneIn int // one sample in this many lies beyond p
	}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}} {
		if n/c.oneIn >= 10 {
			best = c.p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule; sorted must be ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// pooled sorts the concatenation of every slice's samples: percentiles are
// taken over the pool, not averaged across slices.
func pooled(slices ...[]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	sort.Float64s(all)
	return all
}

// worseBy is how much b is worse than a as a share of a, for a metric whose
// better direction is given: positive means b regressed.
func worseBy(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// verdict is the outcome of comparing a parent's runs with a change's.
type verdict struct {
	MedianA, MedianB float64
	Q1A, Q3A         float64
	Q1B, Q3B         float64
	WinShare         float64 // pairs b wins over pairs that are not ties
	Pairs            int
	Change           float64 // worseBy(medianA, medianB): >0 is a regression
	Gain             bool    // the guide's rule: ≥ 10 pairs, ≥ 9/10 of them won, beyond a's own spread
	Regressed        bool    // median worse by more than bound
	Unresolved       bool    // spread wider than bound and not every b beats every a
}

// minPairs is how many pairs the guide asks for before a gain may be claimed.
const minPairs = 10

// compareRuns applies the choosing-metrics rule to paired runs a[i], b[i].
func compareRuns(a, b []float64, lowerIsBetter bool, bound float64) verdict {
	v := verdict{MedianA: median(a), MedianB: median(b)}
	v.Q1A, v.Q3A = quartiles(a)
	v.Q1B, v.Q3B = quartiles(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins, decided := 0, 0
	for i := 0; i < n; i++ {
		switch w := worseBy(a[i], b[i], lowerIsBetter); {
		case w < 0:
			wins++
			decided++
		case w > 0:
			decided++
		}
	}
	v.Pairs = n
	if decided > 0 {
		v.WinShare = float64(wins) / float64(decided)
	}
	v.Change = worseBy(v.MedianA, v.MedianB, lowerIsBetter)
	iqrA := v.Q3A - v.Q1A
	v.Gain = n >= minPairs && float64(wins) >= 0.9*float64(n) && math.Abs(v.MedianB-v.MedianA) > iqrA
	v.Regressed = v.Change > bound
	if v.MedianA != 0 && iqrA/math.Abs(v.MedianA) > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if worseBy(y, x, lowerIsBetter) >= 0 {
					allBetter = false
				}
			}
		}
		v.Unresolved = !allBetter
	}
	return v
}
