package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(123 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 123*time.Microsecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != h.Max() || h.Min() != 123*time.Microsecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramExactMeanSum(t *testing.T) {
	var h Histogram
	var want int64
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
		want += int64(i) * 1000
	}
	if int64(h.Sum()) != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), time.Duration(want))
	}
	if h.Mean() != time.Duration(want/1000) {
		t.Fatalf("Mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("negative sample should be recorded as zero")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// log-uniform over [1us, 100ms]
		v := time.Duration(math.Exp(rng.Float64()*math.Log(1e5)) * 1e3)
		samples = append(samples, v)
		h.Record(v)
	}
	slices.Sort(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.05 {
			t.Errorf("q=%v: got %v exact %v (rel err %.3f)", q, got, exact, relErr)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i))
	}
	if h.Quantile(0) != h.Min() {
		t.Fatal("Quantile(0) != Min")
	}
	if h.Quantile(1) != h.Max() {
		t.Fatal("Quantile(1) != Max")
	}
	if h.Quantile(-3) != h.Min() || h.Quantile(7) != h.Max() {
		t.Fatal("out-of-range q not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Int63n(1e9))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merge mismatch: count %d vs %d, sum %v vs %v", a.Count(), both.Count(), a.Sum(), both.Sum())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatal("merge min/max mismatch")
	}
	if a.Quantile(0.9) != both.Quantile(0.9) {
		t.Fatal("merge quantile mismatch")
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b Histogram
	a.Record(5)
	a.Merge(&b) // empty other: no-op
	if a.Count() != 1 {
		t.Fatal("merging empty changed count")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Min() != 5 {
		t.Fatal("merging into empty lost state")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	check := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return bucketIndex(a) <= bucketIndex(b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowInvertsIndex(t *testing.T) {
	check := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		lo := bucketLow(i)
		if lo > v {
			return false
		}
		// relative error of bucket floor bounded by 1/64
		return float64(v-lo) <= float64(v)/float64(subBuckets)+1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMASeedsWithFirstValue(t *testing.T) {
	e := NewEWMA(0.2)
	if e.Initialized() {
		t.Fatal("fresh EWMA reports initialized")
	}
	if got := e.Update(10); got != 10 {
		t.Fatalf("first update = %v, want 10", got)
	}
	if !e.Initialized() {
		t.Fatal("EWMA not initialized after update")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	e.Update(0)
	for i := 0; i < 100; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Fatalf("Value = %v, want ~42", e.Value())
	}
}

func TestEWMAFormula(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(10)
	if got := e.Update(20); got != 15 {
		t.Fatalf("got %v, want 15", got)
	}
	if got := e.Update(5); got != 10 {
		t.Fatalf("got %v, want 10", got)
	}
}

func TestEWMAIgnoresNaN(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(10)
	e.Update(math.NaN())
	if e.Value() != 10 {
		t.Fatalf("NaN polluted EWMA: %v", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.9)
	e.Update(100)
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Fatal("reset incomplete")
	}
	if e.Alpha() != 0.9 {
		t.Fatal("reset dropped alpha")
	}
}

func TestWelfordMeanVariance(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// sample variance of this set is 32/7
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
}

func TestWelfordFewSamples(t *testing.T) {
	var w Welford
	if w.Variance() != 0 {
		t.Fatal("variance of empty should be 0")
	}
	w.Add(3)
	if w.Variance() != 0 || w.Stddev() != 0 {
		t.Fatal("variance of single sample should be 0")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkEWMAUpdate(b *testing.B) {
	e := NewEWMA(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Update(float64(i))
	}
}
