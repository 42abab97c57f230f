package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianSliceAndPooledPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median of five = %v, want the middle value 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	slices := []metrics{{"x": 10}, {"x": 30}, {"x": 20}, {"x": 1000}, {"x": 25}}
	into := metrics{}
	medianOf(slices, into, "x")
	if into["x"] != 25 {
		t.Errorf("median slice = %v, want 25: one slow slice must not move it", into["x"])
	}

	// Percentiles come from the pool, not from averaging per-slice ones:
	// the one large sample of slice b is the pool's maximum.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := []float64{100}
	all := pooled(a, b)
	if len(all) != 10 || all[9] != 100 {
		t.Fatalf("pooled = %v", all)
	}
	if got := percentile(all, 50); got != 5 {
		t.Errorf("pooled p50 = %v, want 5", got)
	}
	if got := percentile(all, 90); got != 9 {
		t.Errorf("pooled p90 = %v, want 9", got)
	}
	if got := percentile(all, 100); got != 100 {
		t.Errorf("pooled p100 = %v, want 100", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 4", q1, q3)
	}
	if got := spread(vs); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func scaled(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

func TestCompareRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.9, 99.1, 100}
	const bound = 0.10

	worse := compareRuns(parent, scaled(parent, 1.20), true, bound)
	if !worse.Regressed || worse.Gain {
		t.Errorf("20%% worse on a lower-is-better metric: %+v, want a regression", worse)
	}
	slight := compareRuns(parent, scaled(parent, 1.05), true, bound)
	if slight.Regressed || slight.Gain {
		t.Errorf("5%% worse within a 10%% bound: %+v, want neither regression nor gain", slight)
	}
	better := compareRuns(parent, scaled(parent, 0.80), true, bound)
	if !better.Gain || better.Regressed || better.WinShare != 1 {
		t.Errorf("20%% better on every pair: %+v, want a gain", better)
	}
	if few := compareRuns(parent[:9], scaled(parent[:9], 0.80), true, bound); few.Gain {
		t.Errorf("nine pairs, every one won: %+v, fewer than ten must not count as a gain", few)
	}
	// Higher-is-better flips the direction.
	if v := compareRuns(parent, scaled(parent, 0.80), false, bound); !v.Regressed {
		t.Errorf("20%% less throughput: %+v, want a regression", v)
	}
	// A change inside the parent's own spread is no gain, however often it wins.
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	v := compareRuns(noisy, scaled(noisy, 0.97), true, bound)
	if v.Gain {
		t.Errorf("3%% better against a 20%% spread: %+v, must not count as a gain", v)
	}
	if !v.Unresolved {
		t.Errorf("spread wider than the bound and runs overlapping: %+v, want unresolved", v)
	}
}

func TestSelfcheckAgreement(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricID{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	}}
	run := func(setup, rps, simMean, allocs float64) outcome {
		return outcome{E2E: metrics{"setup_s": setup, "req_per_s": rps},
			Pinned: metrics{"sim_mean_us": simMean, "allocs_per_req": allocs}}
	}
	// setup_s may double between two single runs; 10% on req_per_s and 1%
	// on allocations are inside their bounds.
	if lines, bad := agreement(spec, "w", run(0.1, 1000, 140, 50), run(0.2, 1100, 140, 50.5)); bad != 0 {
		t.Fatalf("runs within bounds: %d disagreements: %v", bad, lines)
	}
	lines, bad := agreement(spec, "w", run(0.1, 1000, 140, 50), run(0.1, 1300, 140.001, 52))
	if bad != 3 {
		t.Errorf("30%% on req_per_s, an inexact sim_mean_us and 4%% on allocs_per_req: %d disagreements, want 3: %v", bad, lines)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "ok") && strings.Contains(l, "req_per_s") {
			t.Errorf("a metric beyond its bound is also reported ok: %q", l)
		}
	}
}

func TestProbeIndex(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	p := &speedProbe{}
	for i, cost := range []time.Duration{900, 1000, 1100, 1300, 1250, 1200, 0} {
		p.samples = append(p.samples, probeSample{at: at(50 * (i + 1)), cost: cost * time.Microsecond})
	}
	// The median of the samples inside the interval, over probeRef; a sample
	// whose clock could not be read (cost 0) is left out.
	for _, c := range []struct {
		from, to int
		want     float64
	}{{0, 150, 1.0}, {151, 400, 1.25}, {0, 400, 1.15}, {401, 500, 1}} {
		if got := p.index(at(c.from), at(c.to)); !near(got, c.want) {
			t.Errorf("index(%d ms, %d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
