package engine_test

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// tailPort scripts samples with controllable mean and tail shapes: the mean
// counters report meanLat while the tail histograms (when enabled) record
// departures at tailLat — so a test can tell which of the two the policy
// actually observed.
type tailPort struct {
	meanLat time.Duration
	tailLat time.Duration
	tails   bool

	n       uint32
	lhist   qstate.DelayHist
	rhist   qstate.DelayHist
	applied []engine.Decision
}

func (p *tailPort) Snapshot(now qstate.Time) core.Sample {
	p.n += 10
	n := p.n
	s := core.Sample{At: now, RemoteOK: true, RemoteAt: now}
	s.Local.Unacked = qstate.Snapshot{Time: now, Total: int64(n), Integral: int64(n) * int64(p.meanLat)}
	s.Local.Unread = qstate.Snapshot{Time: now}
	s.Local.AckDelay = qstate.Snapshot{Time: now}
	us := uint32(uint64(now) / 1000)
	s.Remote.Unacked = qstate.WireQueue{TimeUS: us, Total: n, IntegralUS: uint32(uint64(n) * uint64(p.meanLat) / 1000)}
	s.Remote.Unread = qstate.WireQueue{TimeUS: us}
	s.Remote.AckDelay = qstate.WireQueue{TimeUS: us}
	if p.tails {
		p.lhist.RecordN(p.tailLat, 10)
		p.rhist.RecordN(p.tailLat, 10)
		s.LocalTailsOK, s.RemoteTailsOK = true, true
		s.LocalTails.Unacked = p.lhist
		s.RemoteTails.Unacked = p.rhist
	}
	return s
}

func (p *tailPort) Apply(d engine.Decision) error {
	p.applied = append(p.applied, d)
	return nil
}

func (p *tailPort) SelfContained() bool { return false }

// recController records what it was asked to observe.
type recController struct {
	mode     policy.Mode
	lastLat  time.Duration
	observes int
	degraded int
}

func (c *recController) Observe(l time.Duration, _ float64, valid bool) policy.Mode {
	c.observes++
	if valid {
		c.lastLat = l
	}
	return c.mode
}
func (c *recController) ObserveDegraded() policy.Mode { c.degraded++; return c.mode }

// TestTailQuantileDrivesController: with TailQuantile set the controller
// observes the composed tail quantile; without it, the mean — on the very
// same sample stream.
func TestTailQuantileDrivesController(t *testing.T) {
	mean, tail := 200*time.Microsecond, 2*time.Millisecond
	run := func(q float64) (time.Duration, *recController) {
		p := &tailPort{meanLat: mean, tailLat: tail, tails: true}
		ctl := &recController{mode: policy.BatchOn}
		ep := engine.New(engine.Config{Controller: ctl, TailQuantile: q}, p)
		ep.Tick(0)
		r := engine.TickResult{}
		for i := 1; i <= 3; i++ {
			r = ep.Tick(qstate.Time(i) * qstate.Time(100*time.Millisecond))
		}
		if !r.Estimate.Valid || !r.Estimate.Tail.Valid {
			t.Fatalf("q=%v: estimate %+v lost validity", q, r.Estimate)
		}
		return ctl.lastLat, ctl
	}

	gotTail, ctl := run(0.99)
	if ctl.degraded != 0 {
		t.Fatalf("tail ticks with tails present routed degraded %d times", ctl.degraded)
	}
	// Bucket quantization: the composed point mass sits within 12.5% of tail.
	if gotTail < tail*7/8 || gotTail > tail*9/8 {
		t.Fatalf("controller observed %v, want ≈ tail %v", gotTail, tail)
	}
	gotMean, _ := run(0)
	if gotMean != mean {
		t.Fatalf("mean mode observed %v, want %v", gotMean, mean)
	}
}

// TestTailAbstentionRoutesDegraded: a v1 peer (no tail histograms) under a
// tail-targeting config turns every post-priming tick into a degraded tick
// with TailAbstained set — while the identical stream without TailQuantile
// runs the normal Observe path.
func TestTailAbstentionRoutesDegraded(t *testing.T) {
	p := &tailPort{meanLat: 300 * time.Microsecond, tails: false}
	ctl := &recController{mode: policy.BatchOn}
	ep := engine.New(engine.Config{Controller: ctl, TailQuantile: 0.99}, p)
	ep.Tick(0)
	var r engine.TickResult
	for i := 1; i <= 4; i++ {
		r = ep.Tick(qstate.Time(i) * qstate.Time(100*time.Millisecond))
	}
	if !r.Estimate.Valid {
		t.Fatalf("mean estimate should stay valid for a v1 peer: %+v", r.Estimate)
	}
	if !r.TailAbstained || !r.Degraded {
		t.Fatalf("tick = %+v, want TailAbstained and Degraded", r)
	}
	if ctl.degraded != 4 {
		t.Fatalf("controller degraded calls = %d, want 4 (every post-priming tick)", ctl.degraded)
	}
	if ep.Stats().DegradedTicks != 4 {
		t.Fatalf("DegradedTicks = %d, want 4", ep.Stats().DegradedTicks)
	}

	// Control: same stream, mean targeting — no degradation at all.
	p2 := &tailPort{meanLat: 300 * time.Microsecond, tails: false}
	ctl2 := &recController{mode: policy.BatchOn}
	ep2 := engine.New(engine.Config{Controller: ctl2}, p2)
	ep2.Tick(0)
	for i := 1; i <= 4; i++ {
		r = ep2.Tick(qstate.Time(i) * qstate.Time(100*time.Millisecond))
	}
	if r.TailAbstained || r.Degraded || ctl2.degraded != 0 {
		t.Fatalf("mean-targeting control run degraded: %+v (%d degraded calls)", r, ctl2.degraded)
	}
}

// TestAIMDTailTargeting: AIMD driven by the tail quantile grows the limit
// while the tail violates the SLO, and freezes (skips the tick entirely)
// when the tail abstains.
func TestAIMDTailTargeting(t *testing.T) {
	// Tail 2ms violates the 1ms SLO even though the mean 200µs meets it:
	// only a tail-driven AIMD grows.
	p := &tailPort{meanLat: 200 * time.Microsecond, tailLat: 2 * time.Millisecond, tails: true}
	aimd := engine.AIMDPolicy{Min: 512, Max: 65536, Step: 1024, Backoff: 0.5, SLO: time.Millisecond}
	ep := engine.New(engine.Config{AIMD: &aimd, TailQuantile: 0.99}, p)
	ep.Tick(0)
	for i := 1; i <= 3; i++ {
		ep.Tick(qstate.Time(i) * qstate.Time(100*time.Millisecond))
	}
	if got := aimd.Limit(); got != 512+3*1024 {
		t.Fatalf("limit = %d, want 3 grows from 512", got)
	}

	// Same but the peer stops sending tails: AIMD must freeze, not decay.
	p2 := &tailPort{meanLat: 200 * time.Microsecond, tails: false}
	aimd2 := engine.AIMDPolicy{Min: 512, Max: 65536, Step: 1024, Backoff: 0.5, SLO: time.Millisecond}
	ep2 := engine.New(engine.Config{AIMD: &aimd2, TailQuantile: 0.99}, p2)
	ep2.Tick(0)
	var r engine.TickResult
	for i := 1; i <= 3; i++ {
		r = ep2.Tick(qstate.Time(i) * qstate.Time(100*time.Millisecond))
	}
	if got := aimd2.Limit(); got != 512 {
		t.Fatalf("abstaining tail moved the limit to %d", got)
	}
	if r.Applied || !r.TailAbstained {
		t.Fatalf("abstained AIMD tick = %+v, want skipped with TailAbstained", r)
	}
}

func TestNewPanicsOnBadTailQuantile(t *testing.T) {
	for _, q := range []float64{-0.5, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TailQuantile=%v accepted", q)
				}
			}()
			engine.New(engine.Config{TailQuantile: q}, &tailPort{})
		}()
	}
}
