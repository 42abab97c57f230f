package obs_test

import (
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// obsPort scripts a single-queue connection with optional peer metadata —
// the same shape the engine tests use, here to drive a full observer.
type obsPort struct {
	st       qstate.State
	remote   bool
	remoteAt qstate.Time
	self     bool
	fail     bool
}

func newObsPort() *obsPort {
	p := &obsPort{}
	p.st.Init(0)
	return p
}

func (p *obsPort) busy(t, dt qstate.Time) {
	p.st.Track(t, 1)
	p.st.Track(t+dt, -1)
}

func (p *obsPort) Snapshot(now qstate.Time) core.Sample {
	s := core.Sample{Local: core.Queues{Unacked: p.st.Snapshot(now)}, At: now}
	if p.remote {
		s.RemoteOK = true
		s.RemoteAt = p.remoteAt
	}
	return s
}

func (p *obsPort) Apply(engine.Decision) error {
	if p.fail {
		return errFail
	}
	return nil
}

func (p *obsPort) SelfContained() bool { return p.self }

var errFail = errorString("apply failed")

type errorString string

func (e errorString) Error() string { return string(e) }

const ms = qstate.Time(time.Millisecond)

// TestObserverMatchesEndpointAccounting pins the observer's counters to the
// endpoint's own Stats over a run that exercises valid, degraded and
// mode-flip ticks — the decision stream and the accounting must agree
// exactly.
func TestObserverMatchesEndpointAccounting(t *testing.T) {
	p := newObsPort()
	p.self = true
	tog := policy.NewToggler(policy.ThroughputUnderSLO{SLO: time.Millisecond},
		policy.DefaultTogglerConfig(), policy.BatchOff, rand.New(rand.NewSource(3)))

	reg := obs.NewRegistry()
	ring := obs.NewRing(128)
	em := obs.NewEngineMetrics(reg)
	ob := obs.NewEngineObserver(em, ring)
	ob.Name = "test"
	ob.Stats = tog.Stats

	ep := engine.New(engine.Config{
		Controller: tog,
		Initial:    policy.BatchOff,
		Observer:   ob,
	}, p)

	const ticks = 50
	for i := 0; i < ticks; i++ {
		now := qstate.Time(i) * 2 * ms
		p.busy(now+ms/4, ms/2)
		ep.Tick(now + ms)
	}

	st := ep.Stats()
	if em.Ticks.Value() != uint64(st.TotalTicks) {
		t.Errorf("ticks counter = %d, endpoint says %d", em.Ticks.Value(), st.TotalTicks)
	}
	if em.OnTicks.Value() != uint64(st.OnTicks) {
		t.Errorf("on-ticks counter = %d, endpoint says %d", em.OnTicks.Value(), st.OnTicks)
	}
	if em.DegradedTicks.Value() != uint64(st.DegradedTicks) {
		t.Errorf("degraded counter = %d, endpoint says %d", em.DegradedTicks.Value(), st.DegradedTicks)
	}
	if em.ValidEstimates.Value() != uint64(st.ValidEstimates) {
		t.Errorf("valid counter = %d, endpoint says %d", em.ValidEstimates.Value(), st.ValidEstimates)
	}
	ts := tog.Stats()
	if em.Explorations.Value() != ts.Explorations {
		t.Errorf("explorations counter = %d, toggler says %d", em.Explorations.Value(), ts.Explorations)
	}
	if em.Switches.Value() != ts.Switches {
		t.Errorf("switches counter = %d, toggler says %d", em.Switches.Value(), ts.Switches)
	}
	if em.ModeFlips.Value() != ts.Switches {
		t.Errorf("mode flips = %d, toggler switched %d times", em.ModeFlips.Value(), ts.Switches)
	}
	if em.Records.Value() != uint64(ticks) || ring.Len() != uint64(ticks) {
		t.Errorf("records = %d / ring %d, want %d", em.Records.Value(), ring.Len(), ticks)
	}

	// The decision stream must replay the accounting: per-record flags
	// re-aggregate to the same totals.
	recs := ring.Last(ticks)
	if len(recs) != 128 && len(recs) != ticks {
		t.Fatalf("ring returned %d records", len(recs))
	}
	var valid, degraded, on, explored int
	for i, r := range recs {
		if r.Endpoint != "test" || !r.Applied || r.Ports != 1 {
			t.Fatalf("record %d = %+v, want applied single-port from endpoint test", i, r)
		}
		if r.Valid {
			valid++
		}
		if r.Degraded {
			degraded++
		}
		if r.Mode == policy.BatchOn.String() {
			on++
		}
		if r.Explored {
			explored++
		}
		if r.Snapshot.Unacked.Time != r.At {
			t.Fatalf("record %d snapshot tuple not taken at tick time: %+v", i, r)
		}
	}
	if valid != st.ValidEstimates || degraded != st.DegradedTicks || on != st.OnTicks {
		t.Errorf("records re-aggregate to valid=%d degraded=%d on=%d, stats say %d/%d/%d",
			valid, degraded, on, st.ValidEstimates, st.DegradedTicks, st.OnTicks)
	}
	if uint64(explored) != ts.Explorations {
		t.Errorf("records show %d explorations, toggler says %d", explored, ts.Explorations)
	}
}

// TestObserverDegradedAndSafeMode drives the estimator into staleness so
// the toggler retreats, and checks staleness age, stale-tick and
// safe-mode-entry metrics.
func TestObserverDegradedAndSafeMode(t *testing.T) {
	p := newObsPort()
	p.remote = true
	cfg := policy.DefaultTogglerConfig()
	cfg.Epsilon = 0 // no exploration noise in this test
	tog := policy.NewToggler(policy.ThroughputUnderSLO{SLO: time.Millisecond},
		cfg, policy.BatchOn, rand.New(rand.NewSource(1)))

	reg := obs.NewRegistry()
	ring := obs.NewRing(64)
	em := obs.NewEngineMetrics(reg)
	ob := obs.NewEngineObserver(em, ring)
	ob.Stats = tog.Stats

	ep := engine.New(engine.Config{
		Controller:   tog,
		Initial:      policy.BatchOn,
		MaxRemoteAge: 3 * time.Millisecond,
		Observer:     ob,
	}, p)

	// Fresh metadata first: staleness gauge tracks now-RemoteAt.
	p.remoteAt = 0
	p.busy(ms/4, ms/2)
	ep.Tick(ms)
	p.busy(ms+ms/4, ms/2)
	ep.Tick(2 * ms)
	if got, want := em.StalenessAge.Value(), (2 * time.Millisecond).Seconds(); got != want {
		t.Fatalf("staleness gauge = %v, want %v", got, want)
	}

	// Let the metadata age out: ticks degrade as remote-stale and, after
	// DegradedAfter in a row, the toggler retreats to safe mode.
	for i := 3; i <= 12; i++ {
		now := qstate.Time(i) * ms
		p.busy(now-ms/2, ms/4)
		ep.Tick(now)
	}
	if em.RemoteStale.Value() == 0 {
		t.Error("no remote-stale ticks counted after metadata aged out")
	}
	if em.DegradedTicks.Value() == 0 {
		t.Error("no degraded ticks counted")
	}
	ts := tog.Stats()
	if ts.SafeFallbacks == 0 {
		t.Fatal("test never forced a safe-mode retreat; adjust the drive")
	}
	if em.SafeModeEnters.Value() != ts.SafeFallbacks {
		t.Errorf("safe-mode entries = %d, toggler says %d", em.SafeModeEnters.Value(), ts.SafeFallbacks)
	}
	recs := ring.Last(4)
	if len(recs) == 0 || !recs[len(recs)-1].RemoteStale || recs[len(recs)-1].Mode != policy.BatchOff.String() {
		t.Errorf("last records should show remote-stale safe mode, got %+v", recs[len(recs)-1])
	}
}

// tailObsPort scripts the mean counters at meanLat and (when tails is set)
// cumulative delay histograms at tailLat, the same drive the engine's tail
// tests use — here to check the observer surfaces the composed tail.
type tailObsPort struct {
	meanLat time.Duration
	tailLat time.Duration
	tails   bool

	n     uint32
	lhist qstate.DelayHist
	rhist qstate.DelayHist
}

func (p *tailObsPort) Snapshot(now qstate.Time) core.Sample {
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

func (p *tailObsPort) Apply(engine.Decision) error { return nil }
func (p *tailObsPort) SelfContained() bool         { return false }

// TestObserverTailMetrics drives a tail-targeting endpoint through the
// observer: with a v2 peer the valid-tail counter and p99/p999 gauges track
// the composed tail and records carry it; with a v1 peer every post-priming
// tick surfaces as a tail abstention, in counter and record alike.
func TestObserverTailMetrics(t *testing.T) {
	tail := 2 * time.Millisecond
	run := func(tails bool) (*obs.EngineMetrics, *obs.Ring, *engine.Endpoint) {
		p := &tailObsPort{meanLat: 200 * time.Microsecond, tailLat: tail, tails: tails}
		reg := obs.NewRegistry()
		ring := obs.NewRing(32)
		em := obs.NewEngineMetrics(reg)
		ob := obs.NewEngineObserver(em, ring)
		ep := engine.New(engine.Config{
			Controller:   constController(policy.BatchOn),
			Initial:      policy.BatchOn,
			TailQuantile: 0.99,
			Observer:     ob,
		}, p)
		ep.Tick(0)
		for i := 1; i <= 4; i++ {
			ep.Tick(qstate.Time(i) * 100 * ms)
		}
		return em, ring, ep
	}

	em, ring, ep := run(true)
	if em.ValidTails.Value() != 4 {
		t.Errorf("valid tails = %d, want 4 (every post-priming tick)", em.ValidTails.Value())
	}
	if em.TailAbstains.Value() != 0 {
		t.Errorf("v2 peer recorded %d abstentions", em.TailAbstains.Value())
	}
	// Bucket quantization: the point mass composes within 12.5% of tail.
	lo, hi := (tail * 7 / 8).Seconds(), (tail * 9 / 8).Seconds()
	if g := em.TailP99.Value(); g < lo || g > hi {
		t.Errorf("tail p99 gauge = %v, want ≈ %v", g, tail.Seconds())
	}
	if g := em.TailP999.Value(); g < lo || g > hi {
		t.Errorf("tail p999 gauge = %v, want ≈ %v", g, tail.Seconds())
	}
	recs := ring.Last(1)
	if len(recs) != 1 || !recs[0].TailValid || recs[0].TailAbstained {
		t.Fatalf("record = %+v, want a valid non-abstained tail", recs)
	}
	if ns := recs[0].TailP99Ns; ns < int64(tail*7/8) || ns > int64(tail*9/8) {
		t.Errorf("record tail p99 = %dns, want ≈ %v", ns, tail)
	}
	if ep.Stats().TailAbstainedTicks != 0 {
		t.Errorf("endpoint counted %d abstentions on a v2 peer", ep.Stats().TailAbstainedTicks)
	}

	em, ring, ep = run(false)
	st := ep.Stats()
	if st.TailAbstainedTicks == 0 {
		t.Fatal("v1 peer never abstained; the drive is wrong")
	}
	if em.TailAbstains.Value() != uint64(st.TailAbstainedTicks) {
		t.Errorf("abstain counter = %d, endpoint says %d", em.TailAbstains.Value(), st.TailAbstainedTicks)
	}
	if em.DegradedTicks.Value() != uint64(st.DegradedTicks) {
		t.Errorf("degraded counter = %d, endpoint says %d", em.DegradedTicks.Value(), st.DegradedTicks)
	}
	if em.ValidTails.Value() != 0 || em.TailP99.Value() != 0 {
		t.Errorf("v1 peer produced a valid tail (%d) or moved the gauge (%v)",
			em.ValidTails.Value(), em.TailP99.Value())
	}
	recs = ring.Last(1)
	if len(recs) != 1 || recs[0].TailValid || !recs[0].TailAbstained || !recs[0].Degraded {
		t.Fatalf("record = %+v, want a degraded tail abstention", recs)
	}
}

// TestObserverApplyErrors counts per-port apply failures.
func TestObserverApplyErrors(t *testing.T) {
	p := newObsPort()
	p.self = true
	p.fail = true
	reg := obs.NewRegistry()
	em := obs.NewEngineMetrics(reg)
	ep := engine.New(engine.Config{
		Controller: constController(policy.BatchOn),
		Initial:    policy.BatchOn,
		Observer:   obs.NewEngineObserver(em, nil),
	}, p)
	for i := 1; i <= 4; i++ {
		ep.Tick(qstate.Time(i) * ms)
	}
	if em.ApplyErrors.Value() != 4 {
		t.Fatalf("apply errors = %d, want 4 (one per tick; the initial New apply is pre-observer)", em.ApplyErrors.Value())
	}
}

// constController always picks one mode.
type constController policy.Mode

func (c constController) Observe(time.Duration, float64, bool) policy.Mode { return policy.Mode(c) }
func (c constController) ObserveDegraded() policy.Mode                     { return policy.Mode(c) }
