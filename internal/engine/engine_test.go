package engine_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// fakePort scripts the engine's inputs and records its outputs: Snapshot
// serves queue states generated from a live qstate.State so the estimates
// are real, and Apply logs every decision (optionally failing).
type fakePort struct {
	st       qstate.State
	remote   bool // attach peer metadata to samples
	self     bool
	applyErr error

	applied []engine.Decision
	errs    int
}

func newFakePort() *fakePort {
	p := &fakePort{}
	p.st.Init(0)
	return p
}

// busy keeps one item in flight from t to t+dt, so the interval ending at
// the next Snapshot has departures and yields a valid estimate.
func (p *fakePort) busy(t qstate.Time, dt qstate.Time) {
	p.st.Track(t, 1)
	p.st.Track(t+dt, -1)
}

func (p *fakePort) Snapshot(now qstate.Time) core.Sample {
	s := core.Sample{
		Local: core.Queues{Unacked: p.st.Snapshot(now)},
		At:    now,
	}
	if p.remote {
		s.RemoteOK = true
		s.RemoteAt = now
	}
	return s
}

func (p *fakePort) Apply(d engine.Decision) error {
	p.applied = append(p.applied, d)
	if p.applyErr != nil {
		p.errs++
		return p.applyErr
	}
	return nil
}

func (p *fakePort) SelfContained() bool { return p.self }

// fakeController scripts the decision and records the routing.
type fakeController struct {
	mode     policy.Mode
	observes int
	degraded int
}

func (c *fakeController) Observe(time.Duration, float64, bool) policy.Mode {
	c.observes++
	return c.mode
}

func (c *fakeController) ObserveDegraded() policy.Mode {
	c.degraded++
	return c.mode
}

func (c *fakeController) Mode() policy.Mode          { return c.mode }
func (c *fakeController) Stats() policy.TogglerStats { return policy.TogglerStats{} }

const ms = qstate.Time(time.Millisecond)

func TestTickAccountingAndModeApplication(t *testing.T) {
	p := newFakePort()
	p.self = true
	ctl := &fakeController{mode: policy.BatchOn}
	ep := engine.New(engine.Config{Controller: ctl, Initial: policy.BatchOff, CorkOnBytes: 4096}, p)

	if len(p.applied) != 1 || p.applied[0].Batch || p.applied[0].CorkBytes != 0 {
		t.Fatalf("initial application = %+v, want batch-off with no cork", p.applied)
	}

	// Priming tick (invalid estimate), then two busy intervals.
	ep.Tick(0)
	p.busy(1*ms, ms)
	ep.Tick(3 * ms)
	p.busy(4*ms, ms)
	r := ep.Tick(6 * ms)

	if !r.Estimate.Valid || !r.Applied || r.Mode != policy.BatchOn {
		t.Fatalf("tick result = %+v, want valid estimate applied in batch-on", r)
	}
	st := ep.Stats()
	if st.TotalTicks != 3 || st.OnTicks != 3 || st.ValidEstimates != 2 || st.DegradedTicks != 0 {
		t.Fatalf("stats = %+v, want 3 ticks, 3 on, 2 valid, 0 degraded", st)
	}
	if ctl.observes != 3 || ctl.degraded != 0 {
		t.Fatalf("controller saw %d observes / %d degraded, want 3 / 0", ctl.observes, ctl.degraded)
	}
	last := p.applied[len(p.applied)-1]
	if !last.Batch || last.CorkBytes != 4096 {
		t.Fatalf("batch-on application = %+v, want cork 4096", last)
	}
}

func TestDegradedTicksRouteToObserveDegraded(t *testing.T) {
	p := newFakePort() // no peer metadata, not self-contained → degraded
	ctl := &fakeController{mode: policy.BatchOff}
	ep := engine.New(engine.Config{Controller: ctl}, p)

	ep.Tick(0) // priming: zero estimate, not yet degraded
	p.busy(1*ms, ms)
	ep.Tick(3 * ms)
	p.busy(4*ms, ms)
	ep.Tick(6 * ms)

	if ctl.degraded != 2 || ctl.observes != 1 {
		t.Fatalf("controller saw %d degraded / %d observes, want 2 / 1", ctl.degraded, ctl.observes)
	}
	if st := ep.Stats(); st.DegradedTicks != 2 {
		t.Fatalf("DegradedTicks = %d, want 2", st.DegradedTicks)
	}
}

func TestSelfContainedMasksMissingPeer(t *testing.T) {
	p := newFakePort()
	p.self = true // hints-style port: no peer metadata by design
	ctl := &fakeController{}
	ep := engine.New(engine.Config{Controller: ctl}, p)

	ep.Tick(0)
	ep.Tick(1 * ms)

	if ctl.degraded != 0 || ctl.observes != 2 {
		t.Fatalf("controller saw %d degraded / %d observes, want 0 / 2", ctl.degraded, ctl.observes)
	}
}

// TestDegradedRunEntersSafeMode is the PR-3 contract over a real toggler: a
// long degraded run must retreat the endpoint to the toggler's safe mode and
// apply it to the port.
func TestDegradedRunEntersSafeMode(t *testing.T) {
	p := newFakePort()
	cfg := policy.DefaultTogglerConfig()
	tog := policy.NewToggler(policy.PreferLatency{}, cfg, policy.BatchOn, rand.New(rand.NewSource(1)))
	ep := engine.New(engine.Config{Controller: tog, Initial: policy.BatchOn, CorkOnBytes: 4096}, p)

	now := qstate.Time(0)
	for i := 0; i < cfg.DegradedAfter+2; i++ {
		ep.Tick(now)
		now += ms
	}

	if tog.Mode() != cfg.SafeMode {
		t.Fatalf("toggler mode = %v after degraded run, want safe mode %v", tog.Mode(), cfg.SafeMode)
	}
	if tog.Stats().SafeFallbacks != 1 {
		t.Fatalf("SafeFallbacks = %d, want 1", tog.Stats().SafeFallbacks)
	}
	last := p.applied[len(p.applied)-1]
	if last.Batch != (cfg.SafeMode == policy.BatchOn) {
		t.Fatalf("port left in batch=%v, want safe mode %v applied", last.Batch, cfg.SafeMode)
	}
}

func TestModeErrorsDegradeAfterLimit(t *testing.T) {
	p := newFakePort()
	p.self = true
	p.applyErr = errors.New("setsockopt: bad file descriptor")
	ctl := &fakeController{mode: policy.BatchOn}
	ep := engine.New(engine.Config{Controller: ctl, ModeErrorLimit: 2}, p)

	// New applies the initial mode (fails once: run=1); two more failing
	// ticks reach the limit, so the fourth tick routes degraded.
	for i := 0; i < 4; i++ {
		ep.Tick(qstate.Time(i) * ms)
	}

	st := ep.Stats()
	if st.ModeErrors != 5 { // initial + 4 ticks
		t.Fatalf("ModeErrors = %d, want 5", st.ModeErrors)
	}
	if ctl.degraded == 0 {
		t.Fatalf("controller never routed degraded despite %d consecutive apply failures", p.errs)
	}
	if st.DegradedTicks == 0 {
		t.Fatalf("stats = %+v, want degraded ticks after repeated mode errors", st)
	}
}

func TestAIMDTicks(t *testing.T) {
	p := newFakePort()
	p.self = true
	aimd := policy.NewAIMD(1000, 8000, 1000, 0.5)
	ep := engine.New(engine.Config{AIMD: &engine.AIMDPolicy{Ctl: aimd, SLO: time.Microsecond}}, p)

	// Invalid (priming) tick: nothing applied — the old hand-wired loop
	// skipped entirely on invalid estimates.
	ep.Tick(0)
	if len(p.applied) != 0 {
		t.Fatalf("AIMD applied %v on an invalid estimate", p.applied)
	}

	// A busy interval violating the 1µs SLO: the limit grows and both the
	// mode and the new limit reach the port.
	p.busy(1*ms, ms)
	r := ep.Tick(3 * ms)
	if !r.Applied {
		t.Fatalf("AIMD tick on a valid estimate did not apply: %+v", r)
	}
	if got := aimd.Limit(); got != 2000 {
		t.Fatalf("limit = %d after one SLO violation, want 2000", got)
	}
	last := p.applied[len(p.applied)-1]
	if !last.Batch || last.CorkBytes != 2000 {
		t.Fatalf("applied %+v, want batch with cork 2000", last)
	}
}

func TestMultiPortAggregation(t *testing.T) {
	a, b := newFakePort(), newFakePort()
	a.remote, b.remote = true, false // b degraded, a not
	ctl := &fakeController{}
	ep := engine.New(engine.Config{Controller: ctl}, a, b)

	ep.Tick(0)
	a.busy(1*ms, ms)
	b.busy(1*ms, ms)
	r := ep.Tick(3 * ms)

	if len(r.PerPort) != 2 {
		t.Fatalf("PerPort has %d entries, want 2", len(r.PerPort))
	}
	if r.Estimate.Degraded {
		t.Fatalf("aggregate degraded with one healthy port: %+v", r)
	}
	if want := r.PerPort[0].Throughput + r.PerPort[1].Throughput; r.Estimate.Throughput != want {
		t.Fatalf("aggregate throughput = %v, want sum of per-port %v", r.Estimate.Throughput, want)
	}
	// Decisions fan out to every port.
	if len(a.applied) != len(b.applied) || len(a.applied) == 0 {
		t.Fatalf("apply fan-out mismatch: %d vs %d", len(a.applied), len(b.applied))
	}

	// Once the last healthy port loses peer data too, the aggregate
	// degrades.
	a.remote = false
	ep.Tick(4 * ms)
	r = ep.Tick(5 * ms)
	if !r.Degraded {
		t.Fatalf("aggregate not degraded with every port degraded: %+v", r)
	}
}

func TestResetReprimes(t *testing.T) {
	p := newFakePort()
	p.self = true
	ep := engine.New(engine.Config{}, p)

	ep.Tick(0)
	p.busy(1*ms, ms)
	if r := ep.Tick(3 * ms); !r.Estimate.Valid {
		t.Fatalf("estimate invalid before reset: %+v", r)
	}
	ep.Reset()
	p.busy(4*ms, ms)
	if r := ep.Tick(6 * ms); r.Estimate.Valid {
		t.Fatalf("estimate valid on the re-priming tick after Reset: %+v", r)
	}
	if r := ep.Tick(7 * ms); r.Applied {
		t.Fatalf("passive endpoint applied a decision: %+v", r)
	}
}

func TestControllerAccessor(t *testing.T) {
	ctl := &fakeController{}
	if got := engine.New(engine.Config{Controller: ctl}, newFakePort()).Controller(); got != ctl {
		t.Fatalf("Controller() = %v, want the configured one", got)
	}
	if got := engine.New(engine.Config{}, newFakePort()).Controller(); got != nil {
		t.Fatalf("passive endpoint reports controller %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero ports", func() { engine.New(engine.Config{}) })
	mustPanic("both policies", func() {
		engine.New(engine.Config{
			Controller: &fakeController{},
			AIMD:       &engine.AIMDPolicy{Ctl: policy.NewAIMD(1, 2, 1, 0.5), SLO: time.Second},
		}, newFakePort())
	})
}
