// Package enginewiring is golden testdata for e2elint/enginewiring; the
// test loads it under the import path of a monitored package (and again
// under internal/engine and an unmonitored path, expecting silence).
package enginewiring

import (
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/policy"
)

// controller mirrors the local-interface wrapping of the toggler the old
// figures runner used; routing the call through it must not launder it.
type controller interface {
	Observe(latency time.Duration, throughput float64, valid bool) policy.Mode
	ObserveDegraded() policy.Mode
	Mode() policy.Mode
	Stats() policy.TogglerStats
}

func estimatorUpdates(est *core.Estimator, s core.Sample) {
	est.Update(s) // want "estimator update outside internal/engine"
	est.Reset()   // ok: resetting is not running the loop
	_ = est.Estimates()
}

func togglerDecisions(tog *policy.Toggler, ucb *policy.UCBToggler, ctl controller) {
	tog.Observe(time.Millisecond, 1000, true) // want "batching decision outside internal/engine"
	tog.ObserveDegraded()                     // want "batching decision outside internal/engine"
	ucb.Observe(time.Millisecond, 1000, true) // want "batching decision outside internal/engine"
	ctl.Observe(time.Millisecond, 1000, true) // want "batching decision outside internal/engine"
	ctl.ObserveDegraded()                     // want "batching decision outside internal/engine"
	_ = tog.Mode()                            // ok: reading the mode is not deciding it
	_ = tog.Stats()
}

func aimdDecisions(a *policy.AIMD) {
	a.Observe(true) // want "batching decision outside internal/engine"
	_ = a.Limit()   // ok: reads
	_ = a.AtFloor()
}

// observer has an Observe that returns no policy.Mode — not a batching
// decision, so not this analyzer's business.
type observer struct{}

func (observer) Observe(v float64) float64 { return v }

func unrelatedObserve(o observer) {
	_ = o.Observe(1) // ok: does not return a policy.Mode
}

func justified(tog *policy.Toggler) {
	//lint:ignore e2elint/enginewiring exercising the policy surface directly in a calibration probe
	tog.Observe(time.Millisecond, 1000, true)
}
