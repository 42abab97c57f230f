// Package engine is the one implementation of the paper's per-endpoint
// control loop: queue snapshot → core.Sample assembly → end-to-end estimate
// → batching decision → mode application, with degraded-tick routing and
// tick accounting (§3.2 estimation, §5 toggling, PR-3 graceful
// degradation).
//
// Every substrate — the simulated stack (tcpsim), the multi-connection
// aggregation runs and real kernel TCP (realtcp) — drives the same
// Endpoint; they differ only in the Port they plug in (where samples come
// from and decisions go, implemented by each substrate's connection type)
// and in who calls Tick: a sim.Ticker on virtual time, or the shard wheel
// on wall time. The engine never reads a clock and imports no substrate —
// time only enters through the `now` passed to each tick, which keeps the
// loop byte-for-byte deterministic under the simulator and lets the
// real-socket harness supply its own epoch.
//
// Closed-loop estimators are only comparable across substrates when the
// measurement/control loop is held fixed (PAPERS.md: Hill on Little's law,
// Lübben & Fidler's closed-loop TCP benchmarks); concentrating the loop
// here is what makes the sim-vs-real comparisons legitimate, and means a
// policy change lands on all substrates at once. The per-port estimator and
// the AIMD step are unexported, so no other package can re-inline the loop.
//
// The Endpoint itself is single-goroutine: all Ticks must come from one
// goroutine (the sim event loop, or the shard that owns the connection).
// The estimators and the AIMD limit it owns are updated only there, so
// they carry no locks.
package engine

import (
	"fmt"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
)

// Decision is one batching decision as applied to a connection: the on/off
// mode plus, when positive, the cork threshold to install. Zero CorkBytes
// leaves the port's threshold unchanged (the on/off toggler corks only when
// batching; the AIMD controller re-corks every tick).
type Decision struct {
	Batch     bool
	CorkBytes int
}

// Port adapts one backend connection to the engine: it produces the per-tick
// sample and absorbs the per-tick decision. Implementations live with the
// substrates (tcpsim.EnginePort, realtcp.Client.EnginePort).
type Port interface {
	// Snapshot captures the connection's queue state as a core.Sample at
	// time now (At and, when peer metadata exists, Remote/RemoteAt set).
	Snapshot(now qstate.Time) core.Sample
	// Apply installs a decision. Errors are counted by the endpoint and,
	// past Config.ModeErrorLimit consecutive failing ticks, degrade the
	// run (the real-TCP safe-mode fallback).
	Apply(d Decision) error
	// SelfContained reports that the port's samples carry the full
	// end-to-end picture on their own — true for hints-based ports
	// (create/complete spans the whole round trip, §3.3), where a missing
	// peer exchange is the design rather than a degradation.
	SelfContained() bool
}

// Controller is the mode-deciding policy surface the endpoint drives —
// policy.Toggler satisfies it under either choice rule.
type Controller interface {
	Observe(latency time.Duration, throughput float64, valid bool) policy.Mode
	ObserveDegraded() policy.Mode
}

// AIMDPolicy is the alternative decision policy: additive-increase/
// multiplicative-decrease control of the cork threshold against an SLO, the
// more principled replacement for on/off toggling the paper proposes (§5
// "Better Batching Heuristics"). Each tick with a usable estimate grows the
// limit by Step while the SLO is violated (more batching recovers capacity)
// and decays it by Backoff while healthy (less batching trims hold delays);
// at Min batching is off. New starts the limit at Min; the parameters must
// not change after that.
type AIMDPolicy struct {
	// Min and Max bound the limit; Step is the additive increase;
	// Backoff in (0,1) is the multiplicative decrease factor.
	Min, Max, Step int
	Backoff        float64
	SLO            time.Duration

	limit int
}

// Limit returns the current cork limit in bytes.
func (a *AIMDPolicy) Limit() int { return a.limit }

// step adapts the limit — additively up when grow, multiplicatively down
// otherwise, clamped to [Min, Max] — and returns it.
func (a *AIMDPolicy) step(grow bool) int {
	if grow {
		a.limit = min(a.limit+a.Step, a.Max)
	} else {
		a.limit = max(int(float64(a.limit)*a.Backoff), a.Min)
	}
	return a.limit
}

// Observer receives every tick's full result for telemetry. It is the
// engine's export seam to the observability plane (internal/obs): the
// engine never imports obs, and a nil observer costs nothing — no extra
// allocations, no extra calls — so golden-pinned simulation runs are
// byte-identical with and without the plane compiled in. ObserveTick runs
// on the tick goroutine; implementations must not block it.
type Observer interface {
	ObserveTick(now qstate.Time, r TickResult)
}

// AuditStats is the online estimator-audit summary the engine consumes
// each tick: how sampled per-request delays compared against the estimates
// that were current when they completed. It is produced by the span
// tracer's auditor (internal/obs/span) but defined here — like Observer —
// so the engine never imports the observability plane.
type AuditStats struct {
	// Audited counts sampled spans scored against a valid mean estimate;
	// TailAudited the subset that also carried a valid tail stamp; Covered
	// the TailAudited spans whose measured delay fell at or under the
	// predicted p99; BlindTail the Audited spans whose stamp had a valid
	// mean but no tail.
	Audited     uint64
	TailAudited uint64
	Covered     uint64
	BlindTail   uint64
	// Coverage is Covered/TailAudited (1 before any tail-audited span): the
	// live analogue of the fidelity harness's p99-coverage score. A healthy
	// p99 estimate keeps it near 0.99.
	Coverage float64
	// ResidualEWMA is the exponentially weighted mean of (measured −
	// estimated) delay over audited spans — the estimator's signed bias.
	ResidualEWMA time.Duration
	// Drifting reports the audit tripped: coverage fell below the
	// configured floor with enough samples, or a tail was expected and
	// never stamped. Drifting ticks are routed down the degraded path.
	Drifting bool
}

// AuditSource supplies the per-tick audit summary — implemented by
// span.Auditor. AuditStats runs on the tick goroutine (//e2e:hotpath) and
// must not block or allocate.
type AuditSource interface {
	AuditStats() AuditStats
}

// Config parameterizes an Endpoint. At most one of Controller and AIMD may
// be set; with neither, the endpoint is a passive estimator (Tick updates
// estimates and accounting but applies nothing) — the probe mode the
// steady-state and ablation measurements use.
type Config struct {
	Controller Controller
	AIMD       *AIMDPolicy

	// Initial is the mode applied at construction when Controller is set.
	Initial policy.Mode
	// CorkOnBytes is the cork threshold installed whenever the controller
	// selects batch-on.
	CorkOnBytes int
	// MaxRemoteAge bounds how old the peer's last exchange may be, on the
	// Sample.At clock, before a port's estimate stops trusting it and falls
	// back to the local-only view with Estimate.Degraded set. Zero disables
	// the check — appropriate only when the exchange cannot stall.
	MaxRemoteAge time.Duration
	// TailQuantile, when nonzero, drives the policy with the composed tail
	// estimate's quantile (e.g. 0.99 for "p99 ≤ D_max" with a
	// policy.QuantileUnderSLO objective) instead of the mean latency. Ticks
	// whose mean estimate is valid but whose tail estimate abstained — a v1
	// peer without delay histograms, reordered deltas — are routed down the
	// degraded path exactly like missing peer metadata: a tail SLO cannot
	// be enforced on a tail nobody can see, so the controller retreats to
	// its safe mode rather than deciding blind. Must lie in (0, 1); the
	// canonical points are core.TailQuantiles.
	TailQuantile float64
	// ModeErrorLimit, when positive, is how many consecutive ticks with a
	// failing Apply the endpoint tolerates before treating ticks as
	// degraded — routing the controller to ObserveDegraded and thus, per
	// its config, into safe mode. Zero disables the check.
	ModeErrorLimit int
	// Observer, when non-nil, receives every tick's result after the
	// decision is applied, with the raw port samples attached
	// (TickResult.Samples) — the one tick hook, for telemetry and for
	// online-estimate series alike. It is an interface so backends can
	// thread it through their option structs without importing the
	// observability plane.
	Observer Observer
	// Audit, when non-nil, is polled every tick for the online
	// estimator-audit summary; a drifting audit routes the tick down the
	// degraded path (the same safe-mode retreat a missing peer or an
	// abstaining tail triggers) — the estimator is measurably wrong about
	// the delays requests actually experience, so decisions built on it
	// are no longer trustworthy.
	Audit AuditSource
}

// TickResult is what one decision tick produced.
type TickResult struct {
	// Estimate is the per-interval end-to-end estimate (the aggregate,
	// for multi-port endpoints); PerPort holds the individual estimates.
	Estimate core.Estimate
	PerPort  []core.Estimate
	// Degraded reports the tick was routed down the degraded path
	// (untrusted estimate, repeated mode-application failures, or — in
	// tail-targeting mode — an abstaining tail estimate).
	Degraded bool
	// TailAbstained reports that Config.TailQuantile demanded a tail but
	// the estimate carried none despite a valid mean — the tick was then
	// routed degraded. Surfaced separately so telemetry can distinguish
	// "peer gone" from "peer speaks v1 / tail unobservable".
	TailAbstained bool
	// Audit is the tick's estimator-audit summary and AuditChecked whether
	// one was taken (Config.Audit set); AuditDrift reports the audit
	// tripped on this tick, which also routed it degraded.
	Audit        AuditStats
	AuditChecked bool
	AuditDrift   bool
	// Mode and Applied describe the decision: Applied is false for
	// passive endpoints and for AIMD ticks skipped on invalid estimates.
	Mode    policy.Mode
	Applied bool
	// ApplyErrors counts the ports whose Apply failed on this tick.
	ApplyErrors int
	// Samples holds the raw per-port samples the tick consumed. It is
	// populated only when Config.Observer is set, so observer-less runs
	// stay allocation-identical to pre-telemetry builds.
	Samples []core.Sample
}

// PerPort and Samples are views into the endpoint's scratch buffers: they
// are valid only until the next Tick on the same endpoint. Observers that
// retain tick data across ticks must copy the slices' contents; the engine
// reuses the backing arrays so a steady-state tick allocates nothing
// (//e2e:hotpath, DESIGN.md §13).

// Stats counts an endpoint's activity.
type Stats struct {
	// TotalTicks counts every Tick; OnTicks those where a controller
	// chose batch-on; DegradedTicks those routed degraded.
	TotalTicks    int
	OnTicks       int
	DegradedTicks int
	// TailAbstainedTicks counts the DegradedTicks subset caused by a
	// tail-targeting config meeting a valid mean but no composed tail.
	TailAbstainedTicks int
	// AuditDriftTicks counts the DegradedTicks subset caused by a
	// drifting estimator audit (Config.Audit).
	AuditDriftTicks int
	// ValidEstimates counts ticks whose estimate was valid.
	ValidEstimates int
	// ModeErrors counts individual Apply failures.
	ModeErrors int
}

// Endpoint owns the control loop over one or more ports. Multi-port
// endpoints estimate per port and decide on the throughput-weighted
// aggregate — the multi-connection policy scope of §3.2.
type Endpoint struct {
	cfg   Config
	ports []Port
	ests  []estimator

	// perPort and samples are the tick's scratch buffers, allocated once at
	// construction and re-filled every tick (TickResult hands out views).
	// samples stays nil unless an Observer is configured.
	perPort []core.Estimate
	samples []core.Sample

	modeErrRun int
	stats      Stats
}

// New builds an endpoint over ports. When a Controller is configured, the
// initial mode is applied immediately (the tick loop then re-applies each
// decision); an AIMD policy's limit starts at its Min. It panics on zero
// ports, on both policies at once and on nonsensical AIMD parameters.
func New(cfg Config, ports ...Port) *Endpoint {
	if len(ports) == 0 {
		panic("engine: endpoint needs at least one port")
	}
	if cfg.Controller != nil && cfg.AIMD != nil {
		panic("engine: Controller and AIMD are mutually exclusive")
	}
	if a := cfg.AIMD; a != nil {
		if a.Min <= 0 || a.Max < a.Min || a.Step <= 0 || a.Backoff <= 0 || a.Backoff >= 1 {
			panic(fmt.Sprintf("engine: invalid AIMD params min=%d max=%d step=%d backoff=%v", a.Min, a.Max, a.Step, a.Backoff))
		}
		a.limit = a.Min
	}
	if cfg.TailQuantile != 0 && (cfg.TailQuantile <= 0 || cfg.TailQuantile >= 1) {
		panic("engine: TailQuantile must lie in (0, 1)")
	}
	ep := &Endpoint{
		cfg:     cfg,
		ports:   ports,
		ests:    make([]estimator, len(ports)),
		perPort: make([]core.Estimate, len(ports)),
	}
	if cfg.Observer != nil {
		ep.samples = make([]core.Sample, len(ports))
	}
	if cfg.Controller != nil {
		ep.apply(ep.decisionFor(cfg.Initial))
	}
	return ep
}

// Tick runs one iteration of the control loop at time now: snapshot every
// port, update the estimators, route the estimate to the configured policy,
// and apply the decision back to every port. The returned result's PerPort
// and Samples slices are views into the endpoint's scratch buffers (see
// TickResult); a steady-state tick performs zero heap allocations.
//
//e2e:hotpath
func (ep *Endpoint) Tick(now qstate.Time) TickResult {
	var r TickResult
	r.PerPort = ep.perPort
	r.Samples = ep.samples // nil unless an Observer is configured
	for i, p := range ep.ports {
		s := p.Snapshot(now)
		if r.Samples != nil {
			r.Samples[i] = s
		}
		e := ep.ests[i].update(s, ep.cfg.MaxRemoteAge)
		if p.SelfContained() {
			// A hints sample spans the full round trip by itself;
			// absent peer metadata is not a degradation there.
			e.Degraded, e.RemoteStale = false, false
		}
		r.PerPort[i] = e
	}
	if len(ep.ports) == 1 {
		r.Estimate = r.PerPort[0]
	} else {
		r.Estimate = core.Aggregate(r.PerPort)
		r.Estimate.Degraded = allDegraded(r.PerPort)
	}
	if r.Estimate.Valid {
		ep.stats.ValidEstimates++
	}
	r.Degraded = r.Estimate.Degraded ||
		(ep.cfg.ModeErrorLimit > 0 && ep.modeErrRun >= ep.cfg.ModeErrorLimit)
	tailMode := ep.cfg.TailQuantile > 0
	if tailMode && r.Estimate.Valid && !r.Estimate.Tail.Valid {
		// A tail SLO with no tail to check: treat exactly like degraded
		// peer metadata (the controller's ObserveDegraded path).
		r.TailAbstained = true
		r.Degraded = true
		ep.stats.TailAbstainedTicks++
	}
	if ep.cfg.Audit != nil {
		r.Audit = ep.cfg.Audit.AuditStats()
		r.AuditChecked = true
		if r.Audit.Drifting {
			// The live audit says measured delays no longer match the
			// estimate driving decisions: route degraded, same retreat as
			// an untrusted estimate.
			r.AuditDrift = true
			r.Degraded = true
			ep.stats.AuditDriftTicks++
		}
	}
	// lat is what the policy observes: the mean estimate, or — in
	// tail-targeting mode — the configured quantile of the composed tail.
	lat := r.Estimate.Latency
	if tailMode && r.Estimate.Tail.Valid {
		lat = r.Estimate.Tail.Quantile(ep.cfg.TailQuantile)
	}

	switch {
	case ep.cfg.Controller != nil:
		var m policy.Mode
		if r.Degraded {
			ep.stats.DegradedTicks++
			m = ep.cfg.Controller.ObserveDegraded()
		} else {
			m = ep.cfg.Controller.Observe(lat, r.Estimate.Throughput, r.Estimate.Valid)
		}
		r.ApplyErrors = ep.apply(ep.decisionFor(m))
		r.Mode, r.Applied = m, true
		if m == policy.BatchOn {
			ep.stats.OnTicks++
		}
	case ep.cfg.AIMD != nil:
		ok := r.Estimate.Valid
		if tailMode {
			// AIMD must not grow or decay on a tail it cannot see.
			ok = ok && r.Estimate.Tail.Valid
		}
		if ok {
			a := ep.cfg.AIMD
			limit := a.step(lat > a.SLO)
			batch := limit > a.Min
			r.ApplyErrors = ep.apply(Decision{Batch: batch, CorkBytes: limit})
			r.Applied = true
			if batch {
				r.Mode = policy.BatchOn
			}
		}
		if r.Degraded {
			ep.stats.DegradedTicks++
		}
	default:
		if r.Degraded {
			ep.stats.DegradedTicks++
		}
	}
	ep.stats.TotalTicks++
	if ep.cfg.Observer != nil {
		ep.cfg.Observer.ObserveTick(now, r)
	}
	return r
}

// decisionFor maps a controller mode to the decision the loop applies: cork
// at CorkOnBytes while batching, leave the threshold alone otherwise.
func (ep *Endpoint) decisionFor(m policy.Mode) Decision {
	d := Decision{Batch: m == policy.BatchOn}
	if d.Batch {
		d.CorkBytes = ep.cfg.CorkOnBytes
	}
	return d
}

// apply installs d on every port, in port order, tracking failures. It
// returns how many ports failed, for the tick result.
func (ep *Endpoint) apply(d Decision) int {
	failed := 0
	for _, p := range ep.ports {
		if err := p.Apply(d); err != nil {
			ep.stats.ModeErrors++
			failed++
		}
	}
	if failed > 0 {
		ep.modeErrRun++
	} else {
		ep.modeErrRun = 0
	}
	return failed
}

// allDegraded reports whether every estimate in es is degraded — the
// aggregate is only untrusted once no connection retains a usable peer view.
func allDegraded(es []core.Estimate) bool {
	for _, e := range es {
		if !e.Degraded {
			return false
		}
	}
	return len(es) > 0
}

// Reset discards the estimators' priming state — the counter history is
// invalid after a connection reset, so the next sample re-primes rather
// than differencing across the discontinuity (configuration survives).
func (ep *Endpoint) Reset() { clear(ep.ests) }

// Stats returns a copy of the endpoint's counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }
