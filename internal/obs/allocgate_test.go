//go:build !race

// Allocation gates for the telemetry plane's //e2e:hotpath functions
// (DESIGN.md §13): Ring.Push and EngineObserver.ObserveTick ride on the
// engine tick, so observing a tick — counters, gauges, histogram, decision
// record — must not feed the GC. Excluded under -race because the race
// runtime's shadow allocations would be charged to the tracked code.

package obs

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// TestAllocGateRingPush gates the decision-record instantiation of the
// value-slot ring (the span instantiation is gated in package span).
func TestAllocGateRingPush(t *testing.T) {
	r := NewRing(64)
	rec := DecisionRecord{Endpoint: "gate", Mode: "batch-on", Valid: true}
	allocgate.Zero(t, 200, "Ring.Push of a DecisionRecord", func() { r.Push(0, &rec, &rec.Seq) })
}

func TestAllocGateObserveTick(t *testing.T) {
	reg := NewRegistry()
	m := NewEngineMetrics(reg, Label{"endpoint", "gate"})
	o := NewEngineObserver(m, NewRing(64))
	o.Name = "gate"
	var stats policy.TogglerStats
	o.Stats = func() policy.TogglerStats {
		stats.Decisions++
		return stats
	}

	// The tick result reuses fixed backing arrays across iterations, exactly
	// like the engine's scratch buffers (TickResult's view contract).
	perPort := make([]core.Estimate, 1)
	samples := make([]core.Sample, 1)
	now := qstate.Time(0)
	observe := func() {
		now += qstate.Time(time.Millisecond)
		samples[0] = core.Sample{At: now, RemoteOK: true, RemoteAt: now - qstate.Time(time.Microsecond)}
		perPort[0] = core.Estimate{
			Latency: time.Millisecond, LocalView: time.Millisecond, LocalViewValid: true,
			Throughput: 1000, Valid: true,
			Tail: core.TailEstimate{
				P50: time.Millisecond, P90: time.Millisecond,
				P99: 2 * time.Millisecond, P999: 3 * time.Millisecond, Valid: true,
			},
		}
		o.ObserveTick(now, engine.TickResult{
			Estimate: perPort[0],
			PerPort:  perPort,
			Mode:     policy.BatchOn,
			Applied:  true,
			Samples:  samples,
		})
	}
	observe() // warm the mode-flip tracking before measuring
	allocgate.Zero(t, 200, "EngineObserver.ObserveTick", observe)
}
