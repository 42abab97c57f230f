package figures

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
)

// TestExchangeFrequencyInvariance asserts §5's claim that reducing the
// metadata-exchange frequency does not hurt estimate accuracy: the online
// estimate stays put while the exchange count drops by orders of magnitude.
func TestExchangeFrequencyInvariance(t *testing.T) {
	skipIfShort(t)
	ivs := []time.Duration{0, time.Millisecond, 50 * time.Millisecond}
	s := exchange(Params{Calib: DefaultCalib(), Dur: 300 * time.Millisecond, Seed: 7}, 35000, ivs).run()
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	ex, online, ticks := col[uint64](t, s, "exchanges"), col[time.Duration](t, s, "online est"), col[int](t, s, "ticks")
	if ticks[0] == 0 || online[0] == 0 {
		t.Fatalf("baseline produced no online estimates: %d ticks, %v", ticks[0], online[0])
	}
	for i := 1; i < len(ivs); i++ {
		if ex[i] >= ex[0]/10 {
			t.Errorf("interval %v: %d exchanges vs baseline %d — rate limit ineffective", ivs[i], ex[i], ex[0])
		}
		if e := relErr(online[i], online[0]); e > 0.10 {
			t.Errorf("interval %v: online estimate %v vs baseline %v (%.0f%% drift)", ivs[i], online[i], online[0], 100*e)
		}
	}
	checkRenders(t, s)
}

// TestTickGranularityTradeoff asserts §5's reaction-speed observation:
// finer decision ticks track the winning mode at a load where the losing
// mode collapses, while very coarse ticks react too slowly within the run.
func TestTickGranularityTradeoff(t *testing.T) {
	skipIfShort(t)
	ivs := []time.Duration{200 * time.Microsecond, 20 * time.Millisecond}
	s := tick(Params{Calib: DefaultCalib(), Dur: 500 * time.Millisecond, Seed: 7}, 50000, ivs).run()
	staticOn := s.Base.Runs[0].Res.Latency.Mean()
	dyn, share := col[time.Duration](t, s, "dynamic"), col[float64](t, s, "on-share") // percent
	if dyn[0] > 2*staticOn {
		t.Errorf("fine tick: dynamic %v vs static-on %v", dyn[0], staticOn)
	}
	if share[0] < 60 {
		t.Errorf("fine tick: on-share %.0f%%, want majority", share[0])
	}
	if share[1] >= share[0] {
		t.Errorf("coarse tick reacted as fast as fine: %.0f%% vs %.0f%%", share[1], share[0])
	}
	if dyn[1] <= dyn[0] {
		t.Errorf("coarse tick latency %v should exceed fine %v at this load", dyn[1], dyn[0])
	}
	checkRenders(t, s)
}

// TestCScanFlip asserts the c-axis behaviour in the full system: batching
// helps the fast client, hurts once the client is slow enough, and the
// flip is monotone-ish along the sweep.
func TestCScanFlip(t *testing.T) {
	skipIfShort(t)
	// Sweep only up to 2x: beyond that the slow client itself saturates
	// under batching-off and batching flips back to helpful (it cuts the
	// client's per-wakeup work) — richer than Figure 1, verified by the
	// CLI's wider sweep.
	s := cscan(Params{Calib: DefaultCalib(), Dur: 300 * time.Millisecond, Seed: 11}, []float64{1, 1.5, 2}).run()
	verdict := col[string](t, s, "batching")
	off, on := col[time.Duration](t, s, "lat (off)"), col[time.Duration](t, s, "lat (on)")
	if verdict[0] != "helps" {
		t.Errorf("scale 1: batching should help (off=%v on=%v)", off[0], on[0])
	}
	if last := len(s.Rows) - 1; verdict[last] == "helps" {
		t.Errorf("scale %.1f: batching should hurt (off=%v on=%v)", s.Rows[last].Specs[0].ClientScale, off[last], on[last])
	}
	if flip := statOf[float64](t, s, "flip scale"); flip <= 1 || flip > 2 {
		t.Errorf("flip scale = %v, want within (1, 2]", flip)
	}
	checkRenders(t, s)
}

// TestPolicyComparison: both bandit controllers must handle the mid-load
// point where batching clearly wins; the comparison also documents a real
// finding — textbook UCB1 assumes stationary bounded rewards, and the
// catastrophic scores observed during overload excursions make it re-probe
// the losing mode far more than decaying ε-greedy does.
func TestPolicyComparison(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	s := bandits(Params{Calib: cal, Dur: 500 * time.Millisecond, Seed: 7}, []float64{45000}).run()
	if eps := col[time.Duration](t, s, "ε-greedy")[0]; eps > cal.SLO {
		t.Errorf("ε-greedy %v violates SLO at 45k", eps)
	}
	if ucb := col[time.Duration](t, s, "ucb1")[0]; ucb > cal.SLO {
		t.Errorf("UCB1 %v violates SLO at 45k", ucb)
	}
	// Both arms head an "on-share" column, so the residency is read from
	// the runs.
	if eps, ucb := s.Rows[0].Runs[0].OnShare, s.Rows[0].Runs[1].OnShare; eps < 0.6 || ucb < 0.6 {
		t.Errorf("residency: eps %.0f%% ucb %.0f%%", 100*eps, 100*ucb)
	}
	checkRenders(t, s)
}

// TestLossRobustness: under packet loss with recovery, measured and
// estimated latency inflate together — the estimator degrades gracefully
// rather than diverging.
func TestLossRobustness(t *testing.T) {
	s := loss(Params{Calib: DefaultCalib(), Dur: 300 * time.Millisecond, Seed: 7}, 20000, []float64{0, 0.01}).run()
	meas, est := col[time.Duration](t, s, "measured"), col[core.Estimate](t, s, "est (bytes)")
	if col[uint64](t, s, "retransmits")[1] == 0 {
		t.Fatal("no retransmissions at 1% loss")
	}
	if meas[1] < 5*meas[0] {
		t.Fatalf("1%% loss measured %v vs clean %v: recovery delay missing", meas[1], meas[0])
	}
	clean, lossy := estLat(est[0]), estLat(est[1])
	if lossy < 5*clean {
		t.Fatalf("1%% loss estimate %v vs clean %v: estimator blind to recovery", lossy, clean)
	}
	// Same order of magnitude: the estimate must track the blowup.
	if e := relErr(lossy, meas[1]); e > 0.6 {
		t.Fatalf("lossy estimate %v vs measured %v (%.0f%%)", lossy, meas[1], 100*e)
	}
	checkRenders(t, s)
}
