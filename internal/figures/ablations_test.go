package figures

import (
	"bytes"
	"testing"
	"time"
)

// TestExchangeFrequencyInvariance asserts §5's claim that reducing the
// metadata-exchange frequency does not hurt estimate accuracy: the online
// estimate stays put while the exchange count drops by orders of magnitude.
func TestExchangeFrequencyInvariance(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	ivs := []time.Duration{0, time.Millisecond, 50 * time.Millisecond}
	out := ExchangeAblation(cal, 35000, ivs, 300*time.Millisecond, 7)
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	base := out.Rows[0]
	if base.Count == 0 || base.OnlineAvg == 0 {
		t.Fatalf("baseline produced no online estimates: %+v", base)
	}
	for _, r := range out.Rows[1:] {
		if r.Exchanges >= base.Exchanges/10 {
			t.Errorf("interval %v: %d exchanges vs baseline %d — rate limit ineffective", r.Interval, r.Exchanges, base.Exchanges)
		}
		if e := relErr(r.OnlineAvg, base.OnlineAvg); e > 0.10 {
			t.Errorf("interval %v: online estimate %v vs baseline %v (%.0f%% drift)", r.Interval, r.OnlineAvg, base.OnlineAvg, 100*e)
		}
	}
	var buf bytes.Buffer
	WriteExchangeAblation(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestTickGranularityTradeoff asserts §5's reaction-speed observation:
// finer decision ticks track the winning mode at a load where the losing
// mode collapses, while very coarse ticks react too slowly within the run.
func TestTickGranularityTradeoff(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	ivs := []time.Duration{200 * time.Microsecond, 20 * time.Millisecond}
	out := TickAblation(cal, 50000, ivs, 500*time.Millisecond, 7)
	fine, coarse := out.Rows[0], out.Rows[1]
	if fine.Dynamic > 2*out.StaticOn {
		t.Errorf("fine tick: dynamic %v vs static-on %v", fine.Dynamic, out.StaticOn)
	}
	if fine.OnShare < 0.6 {
		t.Errorf("fine tick: on-share %.0f%%, want majority", 100*fine.OnShare)
	}
	if coarse.OnShare >= fine.OnShare {
		t.Errorf("coarse tick reacted as fast as fine: %.0f%% vs %.0f%%", 100*coarse.OnShare, 100*fine.OnShare)
	}
	if coarse.Dynamic <= fine.Dynamic {
		t.Errorf("coarse tick latency %v should exceed fine %v at this load", coarse.Dynamic, fine.Dynamic)
	}
	var buf bytes.Buffer
	WriteTickAblation(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestCScanFlip asserts the c-axis behaviour in the full system: batching
// helps the fast client, hurts once the client is slow enough, and the
// flip is monotone-ish along the sweep.
func TestCScanFlip(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	// Sweep only up to 2x: beyond that the slow client itself saturates
	// under batching-off and batching flips back to helpful (it cuts the
	// client's per-wakeup work) — richer than Figure 1, verified by the
	// CLI's wider sweep.
	out := CScan(cal, []float64{1, 1.5, 2}, 300*time.Millisecond, 11)
	if !out.Rows[0].NagleHelps {
		t.Errorf("scale 1: batching should help (off=%v on=%v)", out.Rows[0].LatOff, out.Rows[0].LatOn)
	}
	last := out.Rows[len(out.Rows)-1]
	if last.NagleHelps {
		t.Errorf("scale %.1f: batching should hurt (off=%v on=%v)", last.Scale, last.LatOff, last.LatOn)
	}
	if out.FlipScale <= 1 || out.FlipScale > 2 {
		t.Errorf("flip scale = %v, want within (1, 2]", out.FlipScale)
	}
	var buf bytes.Buffer
	WriteCScan(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestPolicyComparison: both bandit controllers must handle the mid-load
// point where batching clearly wins; the comparison also documents a real
// finding — textbook UCB1 assumes stationary bounded rewards, and the
// catastrophic scores observed during overload excursions make it re-probe
// the losing mode far more than decaying ε-greedy does.
func TestPolicyComparison(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	out := PolicyCompare(cal, []float64{45000}, 500*time.Millisecond, 7)
	r := out.Rows[0]
	if r.EpsGreedy > cal.SLO {
		t.Errorf("ε-greedy %v violates SLO at 45k", r.EpsGreedy)
	}
	if r.UCB > cal.SLO {
		t.Errorf("UCB1 %v violates SLO at 45k", r.UCB)
	}
	if r.EpsOnShare < 0.6 || r.UCBOnShare < 0.6 {
		t.Errorf("residency: eps %.0f%% ucb %.0f%%", 100*r.EpsOnShare, 100*r.UCBOnShare)
	}
	var buf bytes.Buffer
	WritePolicyCompare(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

// TestLossRobustness: under packet loss with recovery, measured and
// estimated latency inflate together — the estimator degrades gracefully
// rather than diverging.
func TestLossRobustness(t *testing.T) {
	cal := DefaultCalib()
	out := LossRobustness(cal, 20000, []float64{0, 0.01}, 300*time.Millisecond, 7)
	clean, lossy := out.Rows[0], out.Rows[1]
	if lossy.Retransmits == 0 {
		t.Fatal("no retransmissions at 1% loss")
	}
	if lossy.Measured < 5*clean.Measured {
		t.Fatalf("1%% loss measured %v vs clean %v: recovery delay missing", lossy.Measured, clean.Measured)
	}
	if lossy.EstBytes < 5*clean.EstBytes {
		t.Fatalf("1%% loss estimate %v vs clean %v: estimator blind to recovery", lossy.EstBytes, clean.EstBytes)
	}
	// Same order of magnitude: the estimate must track the blowup.
	if e := relErr(lossy.EstBytes, lossy.Measured); e > 0.6 {
		t.Fatalf("lossy estimate %v vs measured %v (%.0f%%)", lossy.EstBytes, lossy.Measured, 100*e)
	}
	var buf bytes.Buffer
	WriteLoss(&buf, out)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}
