// Package obsdeterminism is golden testdata for e2elint/obsdeterminism;
// the test loads it under the import path of a golden-determinism package
// (internal/figures) and again under an unrestricted path, expecting
// silence there.
package obsdeterminism

import (
	"e2ebatch/internal/engine"
	"e2ebatch/internal/obs"      // want "import of e2ebatch/internal/obs in golden-determinism package"
	"e2ebatch/internal/obs/span" // want "import of e2ebatch/internal/obs/span in golden-determinism package"
	"e2ebatch/internal/qstate"
)

// registryTraffic is the core violation: counting and timing from inside a
// golden-pinned run perturbs what the goldens pin.
func registryTraffic() {
	reg := obs.NewRegistry()                         // want "use of e2ebatch/internal/obs.NewRegistry"
	ticks := reg.Counter("sim_ticks_total", "ticks") // want "use of e2ebatch/internal/obs.Counter"
	ticks.Inc()                                      // want "use of e2ebatch/internal/obs.Inc"
	reg.Gauge("sim_depth", "queue depth").Set(3)     // want "use of e2ebatch/internal/obs.Gauge" "use of e2ebatch/internal/obs.Set"
	_ = reg.Latencies("sim_latency_seconds", "lat")  // want "use of e2ebatch/internal/obs.Latencies"
}

// ringTraffic: pushing decision records from simulated code is just as
// ordering-sensitive as metric writes.
func ringTraffic() {
	ring := obs.NewRing(8)     // want "use of e2ebatch/internal/obs.NewRing"
	rec := obs.DecisionRecord{ // want "use of e2ebatch/internal/obs.DecisionRecord"
		Endpoint: "sim", // want "use of e2ebatch/internal/obs.Endpoint"
	}
	ring.Push(0, &rec, &rec.Seq) // want "use of e2ebatch/internal/obs/span.Push" "use of e2ebatch/internal/obs.Seq"
}

// typeReferences: even holding an obs type in a struct couples the golden
// path to the telemetry plane.
type instrumented struct {
	reg *obs.Registry // want "use of e2ebatch/internal/obs.Registry"
}

// observerHook is the sanctioned seam: engine.Observer is defined in
// internal/engine, so accepting, storing and invoking one references
// nothing in obs and stays silent.
type observerHook struct {
	o engine.Observer
}

func (h *observerHook) tick(now qstate.Time, r engine.TickResult) {
	if h.o != nil {
		h.o.ObserveTick(now, r)
	}
}

// spanTraffic: the span tracer is part of the obs subtree — a Begin/Finish
// on a simulated hot path is a side channel exactly like a counter
// increment, so golden packages may not reference it either. The sanctioned
// seam is the loadgen OnComplete callback, which needs no span import.
func spanTraffic() {
	tr := span.New(span.Config{SampleEvery: 8}) // want "use of e2ebatch/internal/obs/span.New" "use of e2ebatch/internal/obs/span.Config" "use of e2ebatch/internal/obs/span.SampleEvery"
	var sp span.Span                            // want "use of e2ebatch/internal/obs/span.Span"
	tr.Begin(&sp, 0, 0, 1, 10)                  // want "use of e2ebatch/internal/obs/span.Begin"
	tr.Finish(&sp, 20)                          // want "use of e2ebatch/internal/obs/span.Finish"
}
