package span

import (
	"sync/atomic"
	"time"

	"e2ebatch/internal/engine"
)

// AuditConfig parameterizes an Auditor.
type AuditConfig struct {
	// CoverageFloor is the minimum acceptable p99 coverage (fraction of
	// tail-audited spans whose measured delay fell at or under the
	// residual-adjusted predicted p99 — see Observe). Coverage below the
	// floor — with at least MinSamples tail-audited spans — trips the
	// drift signal. Default 0.9: an adjusted p99 should cover ~99% of
	// requests, so dropping under 90% means the tail estimate broke beyond
	// its calibrated offset, far past the histogram's 12.5% bucket
	// resolution. Values outside (0, 1] take the default.
	CoverageFloor float64
	// MinSamples is how many audited spans a drift verdict needs before it
	// can trip — below it the auditor stays quiet rather than alarming on
	// noise (default 32).
	MinSamples uint64
	// ExpectTail arms the blind-tail trip: when set (tail-targeting
	// endpoints), an audit that has scored MinSamples spans against valid
	// means without ever seeing a valid tail stamp is drifting — the
	// policy's p99 never existed, the chaos case a v1 peer produces.
	ExpectTail bool
	// EWMAShift sets the residual EWMA's smoothing constant α = 1/2^shift
	// (default 3, α = 1/8). The update is pure integer arithmetic —
	// ewma += (residual − ewma) >> shift — so an oracle recomputation over
	// the same sample sequence reproduces it exactly.
	EWMAShift uint
	// Shards sizes the padded per-shard counter cells (default 8); use the
	// fleet's shard count so concurrent read loops never false-share.
	Shards int
}

// auditCell is one shard's audit counters, padded to a cache line so
// concurrent shards' updates never false-share.
type auditCell struct {
	audited     atomic.Uint64
	tailAudited atomic.Uint64
	covered     atomic.Uint64
	blindTail   atomic.Uint64
	_           [32]byte
}

// Auditor scores finished spans against their estimate stamps and
// summarizes the comparison as engine.AuditStats: the residual EWMA, p99
// coverage, and the drift verdict the engine's degraded-path routing
// consumes. Several tracers may share one auditor (a fleet's connections):
// the verdict is then theirs together, with counters in per-shard cells.
// Observe and AuditStats are both //e2e:hotpath — one runs on completion
// paths, the other inside engine.Tick — and neither allocates.
type Auditor struct {
	floor      float64
	minSamples uint64
	expectTail bool
	shift      uint

	cells []auditCell
	ewma  atomic.Int64
}

// NewAuditor builds an auditor from cfg (zero-value fields take defaults).
func NewAuditor(cfg AuditConfig) *Auditor {
	if cfg.CoverageFloor <= 0 || cfg.CoverageFloor > 1 {
		cfg.CoverageFloor = 0.9
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 32
	}
	if cfg.EWMAShift == 0 {
		cfg.EWMAShift = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	return &Auditor{
		floor:      cfg.CoverageFloor,
		minSamples: cfg.MinSamples,
		expectTail: cfg.ExpectTail,
		shift:      cfg.EWMAShift,
		cells:      make([]auditCell, cfg.Shards),
	}
}

// Observe scores one finished span: a span with a valid mean stamp updates
// the residual EWMA, one with a valid tail stamp also scores the p99
// coverage, and a stamp-less span is not audited. Tracer.Finish calls this.
//
// Coverage scores the measured delay against the residual-adjusted p99 —
// EstP99Ns plus the EWMA as updated by this span's own residual. The
// estimator's composed path is the counter-visible pipeline; the measured
// span additionally carries client-side time the counters never see, a
// structural offset the mean residual learns within a few samples. Scoring
// the adjusted p99 makes coverage a drift detector (the tail breaking
// beyond the calibrated offset) rather than a re-measurement of the known
// model bias the fidelity harness already quantifies.
//
//e2e:hotpath
func (a *Auditor) Observe(sp *Span) {
	if !sp.EstValid {
		return
	}
	m := sp.MeasuredNs()
	c := &a.cells[int(sp.Shard)%len(a.cells)]
	c.audited.Add(1)
	resid := m - sp.EstNs
	var ew int64
	for {
		old := a.ewma.Load()
		nw := old + (resid-old)>>a.shift
		if a.ewma.CompareAndSwap(old, nw) {
			ew = nw
			break
		}
	}
	if sp.TailValid {
		c.tailAudited.Add(1)
		if m <= sp.EstP99Ns+ew {
			c.covered.Add(1)
		}
	} else {
		c.blindTail.Add(1)
	}
}

// AuditStats implements engine.AuditSource: roll the padded cells up
// lock-free and derive coverage and the drift verdict. Runs inside
// engine.Tick.
//
//e2e:hotpath
func (a *Auditor) AuditStats() engine.AuditStats {
	var s engine.AuditStats
	for i := range a.cells {
		c := &a.cells[i]
		s.Audited += c.audited.Load()
		s.TailAudited += c.tailAudited.Load()
		s.Covered += c.covered.Load()
		s.BlindTail += c.blindTail.Load()
	}
	s.Coverage = 1
	if s.TailAudited > 0 {
		s.Coverage = float64(s.Covered) / float64(s.TailAudited)
	}
	s.ResidualEWMA = time.Duration(a.ewma.Load())
	s.Drifting = (s.TailAudited >= a.minSamples && s.Coverage < a.floor) ||
		(a.expectTail && s.TailAudited == 0 && s.BlindTail >= a.minSamples)
	return s
}
