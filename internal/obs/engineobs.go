package obs

import (
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// EngineMetrics is the full set of control-loop metric families. Creating
// it registers every family (at zero) so a scrape always shows the complete
// schema — a kvserver with no client attached still exports the engine
// counters, just flat.
type EngineMetrics struct {
	Ticks          *Counter
	OnTicks        *Counter
	DegradedTicks  *Counter
	TailAbstains   *Counter
	ModeFlips      *Counter
	ApplyErrors    *Counter
	ValidEstimates *Counter
	ValidTails     *Counter
	RemoteStale    *Counter
	Explorations   *Counter
	Switches       *Counter
	SafeModeEnters *Counter
	Records        *Counter
	AuditDrifts    *Counter
	StalenessAge   *Gauge
	Throughput     *Gauge
	TailP99        *Gauge
	TailP999       *Gauge
	AuditSpans     *Gauge
	AuditCoverage  *Gauge
	AuditResidual  *Gauge
	EstimateLat    *Latencies
}

// NewEngineMetrics registers the control-loop families on reg with the
// given constant labels (typically Label{"endpoint", name}).
func NewEngineMetrics(reg *Registry, labels ...Label) *EngineMetrics {
	return &EngineMetrics{
		Ticks:          reg.Counter("e2e_engine_ticks_total", "Engine decision ticks run.", labels...),
		OnTicks:        reg.Counter("e2e_engine_on_ticks_total", "Ticks whose decision was batch-on.", labels...),
		DegradedTicks:  reg.Counter("e2e_engine_degraded_ticks_total", "Ticks routed down the degraded path.", labels...),
		TailAbstains:   reg.Counter("e2e_engine_tail_abstained_ticks_total", "Degraded ticks where a tail-targeting policy met a valid mean but no composed tail.", labels...),
		ModeFlips:      reg.Counter("e2e_engine_mode_flips_total", "Applied decisions that changed the batching mode.", labels...),
		ApplyErrors:    reg.Counter("e2e_engine_apply_errors_total", "Per-port mode applications that failed (e.g. SetNoDelay errors).", labels...),
		ValidEstimates: reg.Counter("e2e_engine_valid_estimates_total", "Ticks whose end-to-end estimate was valid.", labels...),
		ValidTails:     reg.Counter("e2e_engine_valid_tails_total", "Ticks whose composed tail estimate was valid.", labels...),
		RemoteStale:    reg.Counter("e2e_estimator_remote_stale_ticks_total", "Ticks degraded because peer metadata aged past MaxRemoteAge.", labels...),
		Explorations:   reg.Counter("e2e_policy_explorations_total", "Toggler decisions that explored rather than exploited.", labels...),
		Switches:       reg.Counter("e2e_policy_switches_total", "Toggler mode switches.", labels...),
		SafeModeEnters: reg.Counter("e2e_policy_safe_mode_entries_total", "Degraded runs that forced a retreat to the safe mode.", labels...),
		Records:        reg.Counter("e2e_decision_records_total", "Decision records published to the ring.", labels...),
		AuditDrifts:    reg.Counter("e2e_audit_drift_ticks_total", "Ticks the online estimator audit tripped and routed degraded.", labels...),
		StalenessAge:   reg.Gauge("e2e_estimator_staleness_seconds", "Age of the freshest peer metadata at the last tick.", labels...),
		Throughput:     reg.Gauge("e2e_estimate_throughput_rps", "Throughput component of the last valid estimate.", labels...),
		TailP99:        reg.Gauge("e2e_estimate_tail_p99_seconds", "p99 of the last valid composed tail estimate.", labels...),
		TailP999:       reg.Gauge("e2e_estimate_tail_p999_seconds", "p999 of the last valid composed tail estimate.", labels...),
		AuditSpans:     reg.Gauge("e2e_audit_spans", "Sampled spans scored against a live estimate so far.", labels...),
		AuditCoverage:  reg.Gauge("e2e_audit_p99_coverage", "Fraction of tail-audited spans at or under the predicted p99.", labels...),
		AuditResidual:  reg.Gauge("e2e_audit_residual_ewma_seconds", "EWMA of measured-minus-estimated delay over audited spans.", labels...),
		EstimateLat:    reg.Latencies("e2e_estimate_latency_seconds", "End-to-end latency estimates, per tick.", labels...),
	}
}

// EngineObserver adapts one engine.Endpoint's tick stream to the telemetry
// plane: counters and gauges into a Registry, decision records into a Ring.
// Attach exactly one observer per endpoint (mode-flip detection and the
// toggler-stat deltas assume one decision stream); a Ring may be shared by
// several observers.
//
// ObserveTick runs on the endpoint's tick goroutine. The mutable fields
// below are therefore single-writer; everything exported is atomic.
type EngineObserver struct {
	// Name labels the decision records when several endpoints share a
	// ring.
	Name string
	// Stats, when non-nil, is polled once per tick for exploration,
	// switch and safe-mode-entry deltas (pass the controller's Stats
	// method). Without it those three counters stay flat and records
	// cannot distinguish explore from exploit.
	Stats func() policy.TogglerStats

	m    *EngineMetrics
	ring *Ring

	prev     policy.TogglerStats
	lastMode policy.Mode
	haveMode bool

	// rec is the scratch decision record, refilled every tick and copied
	// into the ring by value — the tick path allocates nothing.
	rec DecisionRecord
}

// NewEngineObserver builds an observer feeding m and, when ring is
// non-nil, publishing one decision record per tick.
func NewEngineObserver(m *EngineMetrics, ring *Ring) *EngineObserver {
	return &EngineObserver{m: m, ring: ring}
}

// ObserveTick implements engine.Observer. It runs on the engine's tick
// (//e2e:hotpath): counters and gauges are atomic, the latency histogram is
// a fixed array, and the decision record is built in a reused scratch
// struct, so observing a tick performs zero heap allocations. r's slices
// are views into engine scratch, consumed before return and never retained.
//
//e2e:hotpath
func (o *EngineObserver) ObserveTick(now qstate.Time, r engine.TickResult) {
	m := o.m
	m.Ticks.Inc()
	if r.Degraded {
		m.DegradedTicks.Inc()
	}
	if r.Estimate.Valid {
		m.ValidEstimates.Inc()
		m.EstimateLat.Record(r.Estimate.Latency)
		m.Throughput.Set(r.Estimate.Throughput)
	}
	if r.Estimate.Tail.Valid {
		m.ValidTails.Inc()
		m.TailP99.Set(r.Estimate.Tail.P99.Seconds())
		m.TailP999.Set(r.Estimate.Tail.P999.Seconds())
	}
	if r.TailAbstained {
		m.TailAbstains.Inc()
	}
	if r.AuditChecked {
		m.AuditSpans.Set(float64(r.Audit.Audited))
		m.AuditCoverage.Set(r.Audit.Coverage)
		m.AuditResidual.Set(r.Audit.ResidualEWMA.Seconds())
		if r.AuditDrift {
			m.AuditDrifts.Inc()
		}
	}
	if r.Estimate.RemoteStale {
		m.RemoteStale.Inc()
	}
	if r.ApplyErrors > 0 {
		m.ApplyErrors.Add(uint64(r.ApplyErrors))
	}
	if r.Applied {
		if r.Mode == policy.BatchOn {
			m.OnTicks.Inc()
		}
		if o.haveMode && r.Mode != o.lastMode {
			m.ModeFlips.Inc()
		}
		o.lastMode, o.haveMode = r.Mode, true
	}

	// Staleness: age of the freshest peer metadata across ports. Ports
	// without an exchange (hints-based, self-contained) contribute
	// nothing; the gauge then keeps its last value, 0 before any
	// exchange.
	remoteOK := false
	var remoteAt qstate.Time
	for _, s := range r.Samples {
		if s.RemoteOK && (!remoteOK || s.RemoteAt > remoteAt) {
			remoteOK, remoteAt = true, s.RemoteAt
		}
	}
	if remoteOK {
		m.StalenessAge.Set(time.Duration(now - remoteAt).Seconds())
	}

	explored := false
	if o.Stats != nil {
		st := o.Stats()
		m.Explorations.Add(st.Explorations - o.prev.Explorations)
		m.Switches.Add(st.Switches - o.prev.Switches)
		m.SafeModeEnters.Add(st.SafeFallbacks - o.prev.SafeFallbacks)
		explored = st.Explorations > o.prev.Explorations
		o.prev = st
	}

	if o.ring == nil {
		return
	}
	o.rec = DecisionRecord{
		At:               int64(now),
		Endpoint:         o.Name,
		Ports:            len(r.PerPort),
		LocalViewNs:      int64(r.Estimate.LocalView),
		LocalViewValid:   r.Estimate.LocalViewValid,
		RemoteViewNs:     int64(r.Estimate.RemoteView),
		RemoteViewValid:  r.Estimate.RemoteViewValid,
		LatencyNs:        int64(r.Estimate.Latency),
		ThroughputPerSec: r.Estimate.Throughput,
		Valid:            r.Estimate.Valid,
		Degraded:         r.Degraded,
		RemoteStale:      r.Estimate.RemoteStale,
		TailP99Ns:        int64(r.Estimate.Tail.P99),
		TailP999Ns:       int64(r.Estimate.Tail.P999),
		TailValid:        r.Estimate.Tail.Valid,
		TailAbstained:    r.TailAbstained,
		AuditChecked:     r.AuditChecked,
		AuditSpans:       r.Audit.Audited,
		AuditCoverage:    r.Audit.Coverage,
		AuditResidualNs:  int64(r.Audit.ResidualEWMA),
		AuditDrift:       r.AuditDrift,
		Explored:         explored,
		Mode:             r.Mode.String(),
		Applied:          r.Applied,
		ApplyErrors:      r.ApplyErrors,
	}
	if len(r.Samples) > 0 {
		o.rec.Snapshot = snapQueues(r.Samples[0].Local)
		o.rec.RemoteOK = r.Samples[0].RemoteOK
		o.rec.RemoteAtNs = int64(r.Samples[0].RemoteAt)
	}
	o.ring.Push(0, &o.rec, &o.rec.Seq)
	m.Records.Inc()
}
