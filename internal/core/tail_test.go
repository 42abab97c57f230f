package core

import (
	"testing"
	"time"

	"e2ebatch/internal/qstate"
)

// splitmix64: the zoo's keyed PRF, re-derived so the tail property tests are
// deterministic without importing loadgen.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randDist builds a normalized interval distribution with mass in up to k
// random buckets.
func randDist(seed uint64, k int) DelayDist {
	var h qstate.DelayHist
	for i := 0; i < k; i++ {
		r := splitmix64(seed + uint64(i))
		h.Counts[r%qstate.DelayBuckets] += uint32(1 + (r>>32)%97)
	}
	var zero qstate.DelayHist
	d, ok := DistBetween(&zero, &h)
	if !ok {
		panic("randDist: delta rejected")
	}
	return d
}

// pointHist returns a cumulative histogram with n observations of exactly d.
func pointHist(d time.Duration, n uint32) qstate.DelayHist {
	var h qstate.DelayHist
	h.RecordN(d, n)
	return h
}

func pointDist(d time.Duration, n uint32) DelayDist {
	var zero qstate.DelayHist
	h := pointHist(d, n)
	out, ok := DistBetween(&zero, &h)
	if !ok {
		panic("pointDist: delta rejected")
	}
	return out
}

// TestComposeTailDegenerateMatchesMean: with point-mass distributions the
// composition collapses to the mean formula — all four quantiles are equal
// and match L_unacked + L_unread^l + L_unread^r − L_ackdelay^r up to bucket
// quantization (each of the three summed stages contributes ≤12.5% midpoint
// error, composed through one extra re-bucketing).
func TestComposeTailDegenerateMatchesMean(t *testing.T) {
	cases := []struct{ ua, url, urr, ack time.Duration }{
		{200 * time.Microsecond, 40 * time.Microsecond, 70 * time.Microsecond, 0},
		{1 * time.Millisecond, 0, 0, 0},
		{500 * time.Microsecond, 100 * time.Microsecond, 0, 50 * time.Microsecond},
		{3 * time.Millisecond, 800 * time.Microsecond, 1200 * time.Microsecond, 300 * time.Microsecond},
	}
	for _, c := range cases {
		local := TailDists{Unacked: pointDist(c.ua, 10), Unread: pointDist(c.url, 10)}
		remote := TailDists{Unacked: pointDist(c.ua, 10), Unread: pointDist(c.urr, 10)}
		var localD, remoteD Delays
		remoteD.AckDelay = qstate.Avgs{Latency: c.ack, Valid: c.ack > 0}
		localD.AckDelay = remoteD.AckDelay
		got := ComposeTail(&local, &remote, localD, remoteD)
		if !got.Valid {
			t.Fatalf("%+v: composition abstained", c)
		}
		if got.P50 != got.P90 || got.P90 != got.P99 || got.P99 != got.P999 {
			t.Fatalf("%+v: point masses produced spread quantiles %+v", c, got)
		}
		mean := c.ua + c.url + c.urr - c.ack
		rel := float64(got.P99-mean) / float64(mean)
		if rel < -0.35 || rel > 0.35 {
			t.Fatalf("%+v: composed %v vs mean-formula %v (%.1f%% off)", c, got.P99, mean, 100*rel)
		}
	}
}

// TestComposeTailQuantilesMonotone: for random distributions the four
// canonical quantiles are nondecreasing, and Quantile(q) maps onto them
// monotonically.
func TestComposeTailQuantilesMonotone(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		local := TailDists{
			Unacked: randDist(seed*1000, 1+int(seed%7)),
			Unread:  randDist(seed*2000, int(seed%5)),
		}
		remote := TailDists{
			Unacked: randDist(seed*3000, 1+int(seed%4)),
			Unread:  randDist(seed*4000, int(seed%6)),
		}
		got := ComposeTail(&local, &remote, Delays{}, Delays{})
		if !got.Valid {
			t.Fatalf("seed %d: abstained with populated unacked dists", seed)
		}
		if got.P50 > got.P90 || got.P90 > got.P99 || got.P99 > got.P999 {
			t.Fatalf("seed %d: quantiles not monotone: %+v", seed, got)
		}
		qs := []float64{0, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 1}
		for i := 1; i < len(qs); i++ {
			if got.Quantile(qs[i]) < got.Quantile(qs[i-1]) {
				t.Fatalf("seed %d: Quantile(%v) < Quantile(%v)", seed, qs[i], qs[i-1])
			}
		}
	}
}

// TestComposedP99DominatesStages: without the ack-delay shift, the composed
// p99 is bounded below by the max single-stage p99 — summing independent
// non-negative delays can only push quantiles up, and the midpoint
// re-bucketing rule preserves that (sumBucket[i][j] >= max(i,j)).
func TestComposedP99DominatesStages(t *testing.T) {
	for seed := uint64(31); seed <= 230; seed++ {
		ua := randDist(seed*11, 1+int(seed%9))
		url := randDist(seed*13, 1+int(seed%8))
		urr := randDist(seed*17, 1+int(seed%6))
		est, ok := composeView(&ua, &url, &urr, 0)
		if !ok {
			t.Fatalf("seed %d: compose failed", seed)
		}
		stageMax := distQuantile(&ua, 0.99)
		if q := distQuantile(&url, 0.99); q > stageMax {
			stageMax = q
		}
		if q := distQuantile(&urr, 0.99); q > stageMax {
			stageMax = q
		}
		if est.P99 < stageMax {
			t.Fatalf("seed %d: composed p99 %v below max stage p99 %v", seed, est.P99, stageMax)
		}
	}
}

// TestSumBucketDominates pins the re-bucketing property the bound above
// rests on, over the whole table.
func TestSumBucketDominates(t *testing.T) {
	for i := 0; i < qstate.DelayBuckets; i++ {
		for j := 0; j < qstate.DelayBuckets; j++ {
			if int(sumBucket[i][j]) < i || int(sumBucket[i][j]) < j {
				t.Fatalf("sumBucket[%d][%d] = %d below its arguments", i, j, sumBucket[i][j])
			}
			if sumBucket[i][j] != sumBucket[j][i] {
				t.Fatalf("sumBucket not symmetric at %d,%d", i, j)
			}
		}
	}
}

// TestComposeTailAbstention: empty unacked distributions, v1 peers and
// reordered histogram deltas all abstain rather than fabricate a tail.
func TestComposeTailAbstention(t *testing.T) {
	empty := TailDists{}
	if got := ComposeTail(&empty, &empty, Delays{}, Delays{}); got.Valid {
		t.Fatal("composed a tail from empty distributions")
	}
	// One valid view is enough.
	local := TailDists{Unacked: pointDist(time.Millisecond, 5)}
	got := ComposeTail(&local, &empty, Delays{}, Delays{})
	if !got.Valid {
		t.Fatal("single valid view abstained")
	}

	// Reordered cumulative histograms are rejected by TailDistsBetween.
	var a, b qstate.WireTails
	a.Unacked.RecordN(time.Millisecond, 10)
	if _, ok := TailDistsBetween(&a, &b); ok {
		t.Fatal("TailDistsBetween accepted a backwards pair")
	}
	if _, ok := TailDistsBetween(&b, &a); !ok {
		t.Fatal("TailDistsBetween rejected a forward pair")
	}
}
