//go:build !race

// Allocation gate for the engine's //e2e:hotpath tick (DESIGN.md §13): a
// steady-state Endpoint.Tick — snapshot, estimate, decide, apply — must not
// allocate, in every configuration (passive, controller-driven, and with an
// Observer attached, where Samples are views into endpoint scratch).
// Excluded under -race because the race runtime's shadow allocations would
// be charged to the tracked code.

package engine_test

import (
	"testing"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// gatePort scripts samples like fakePort but records only the last applied
// decision — fakePort.Apply appends to a log, which would charge the gate
// for test bookkeeping rather than engine work.
type gatePort struct {
	st   qstate.State
	last engine.Decision
}

func (p *gatePort) Snapshot(now qstate.Time) core.Sample {
	return core.Sample{Local: core.Queues{Unacked: p.st.Snapshot(now)}, At: now}
}

func (p *gatePort) Apply(d engine.Decision) error { p.last = d; return nil }
func (p *gatePort) SelfContained() bool           { return true }

// gateObserver consumes tick results without retaining the scratch views.
type gateObserver struct{ ticks int }

func (o *gateObserver) ObserveTick(now qstate.Time, r engine.TickResult) {
	o.ticks += len(r.PerPort)
}

func TestAllocGateEndpointTick(t *testing.T) {
	run := func(t *testing.T, cfg engine.Config) {
		t.Helper()
		p := &gatePort{}
		p.st.Init(0)
		ep := engine.New(cfg, p)
		now := qstate.Time(0)
		tick := func() {
			now += ms
			p.st.Track(now, 1)
			now += ms
			p.st.Track(now, -1)
			ep.Tick(now)
		}
		tick() // prime the estimator outside the measured runs
		allocgate.Zero(t, 200, "Endpoint.Tick", tick)
	}
	t.Run("passive", func(t *testing.T) {
		run(t, engine.Config{})
	})
	t.Run("controller", func(t *testing.T) {
		run(t, engine.Config{Controller: &fakeController{mode: policy.BatchOn}, CorkOnBytes: 16 << 10})
	})
	t.Run("observer", func(t *testing.T) {
		run(t, engine.Config{Controller: &fakeController{mode: policy.BatchOn}, Observer: &gateObserver{}})
	})
}
