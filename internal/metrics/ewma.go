package metrics

import "math"

// EWMA is an exponentially weighted moving average with a fixed smoothing
// factor alpha in (0, 1]. The paper (§5) proposes EWMAs to smooth noisy
// per-tick end-to-end estimates before toggling decisions; this is that
// smoother. The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	set   bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics unless
// 0 < alpha <= 1.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic("metrics: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Update folds a new observation in and returns the new average. The first
// observation seeds the average directly. NaN observations are ignored so a
// single undefined estimate (e.g. 0/0 from an idle interval) cannot poison
// the smoother.
func (e *EWMA) Update(x float64) float64 {
	if math.IsNaN(x) {
		return e.value
	}
	if !e.set {
		e.value = x
		e.set = true
		return x
	}
	e.value += e.alpha * (x - e.value)
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.set }

// Reset discards all state, keeping alpha.
func (e *EWMA) Reset() { e.value, e.set = 0, false }

// Alpha returns the smoothing factor.
func (e *EWMA) Alpha() float64 { return e.alpha }

// Welford computes running mean and variance in one pass (Welford's online
// algorithm, numerically stable). The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds in one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (0 with fewer than two samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }
