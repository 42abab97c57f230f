package span

import (
	"sync/atomic"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/qstate"
)

// Config parameterizes a Tracer.
type Config struct {
	// Seed keys the sampling hash. Two tracers with the same seed and
	// SampleEvery select the same request IDs — deterministic replay.
	Seed uint64
	// SampleEvery is the sampling rate: a request is sampled when
	// splitmix64(Seed + id) % SampleEvery == 0, so roughly 1-in-N of them,
	// chosen by a fixed hash rather than a stateful counter — the
	// selection is a pure function of (seed, id), independent of arrival
	// order and thread interleaving. Values <= 1 sample everything.
	SampleEvery uint64
	// Ring receives finished spans (nil: spans are audited but not kept).
	Ring *Ring[Span]
	// Audit, when non-nil, scores every finished (non-aborted) span
	// against the current estimate stamp.
	Audit *Auditor
}

// Tracer decides which requests are sampled, stamps spans with the current
// estimate, and routes finished spans to the ring and the auditor. All
// methods are //e2e:hotpath and allocation-free; the caller owns the *Span
// scratch (typically a stack variable), so tracing a request costs a hash
// on the unsampled path and two ring/audit writes on the sampled one.
//
// A Tracer is the engine.Observer of the endpoint whose requests it traces:
// the estimate stamp (ObserveTick) is written from that endpoint's tick
// goroutine and read from whatever goroutine finishes spans; the fields are
// individually atomic, so a finish racing a tick may combine two adjacent
// ticks' mean and tail — both are "current" to within one tick, which is
// the stamp's stated resolution.
type Tracer struct {
	seed  uint64
	every uint64
	ring  *Ring[Span]
	audit *Auditor

	estMean  atomic.Int64
	estP99   atomic.Int64
	estFlags atomic.Uint32 // bit 0: mean valid, bit 1: tail valid

	// p99Seeded tracks whether estP99 holds a value yet; only ObserveTick
	// (single-writer, tick goroutine) touches it, so it needs no atomicity.
	p99Seeded bool
}

// New builds a tracer from cfg.
func New(cfg Config) *Tracer {
	return &Tracer{seed: cfg.Seed, every: cfg.SampleEvery, ring: cfg.Ring, audit: cfg.Audit}
}

// Ring returns the configured ring (nil when spans are not retained).
func (t *Tracer) Ring() *Ring[Span] { return t.ring }

// Auditor returns the configured auditor, or nil.
func (t *Tracer) Auditor() *Auditor { return t.audit }

// splitmix64 is the same per-index derivation the fleet and the workload
// zoo use for reproducible streams (Steele et al.'s SplitMix64 finalizer).
//
//e2e:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampled reports whether request id is in the sample — the unsampled hot
// path is exactly this call.
//
//e2e:hotpath
func (t *Tracer) Sampled(id uint64) bool {
	if t.every <= 1 {
		return true
	}
	return splitmix64(t.seed+id)%t.every == 0
}

// tailEWMAShift is the smoothing constant (α = 1/8) for the p99 stamp.
// One decision tick's interval histograms hold only rate×tick samples —
// ~30 at the paper's 30 kRPS and 1 ms tick — far too few for a stable
// p99, so the stamp carries a tick-EWMA of the composed p99 rather than
// the raw per-interval value. The mean stamp stays raw: with the same
// sample count a mean is already stable, and the auditor smooths its
// residual separately.
const tailEWMAShift = 3

// ObserveTick implements engine.Observer: the tick's estimate becomes the
// stamp subsequent Finishes copy — the mean end-to-end latency and the
// composed tail's p99, with their validity bits. Attach the tracer as its
// endpoint's observer (or call this after each Tick); it is single-writer
// from the tick goroutine.
//
//e2e:hotpath
func (t *Tracer) ObserveTick(_ qstate.Time, r engine.TickResult) {
	e := &r.Estimate
	t.estMean.Store(int64(e.Latency))
	if e.Tail.Valid {
		p99 := int64(e.Tail.P99)
		if !t.p99Seeded {
			// First valid tail seeds the EWMA rather than averaging
			// against a meaningless zero; abstaining ticks in between
			// leave the smoothed value in place.
			t.estP99.Store(p99)
			t.p99Seeded = true
		} else {
			old := t.estP99.Load()
			t.estP99.Store(old + (p99-old)>>tailEWMAShift)
		}
	}
	var flags uint32
	if e.Valid {
		flags |= 1
	}
	if e.Tail.Valid {
		flags |= 2
	}
	t.estFlags.Store(flags)
}

// Begin initializes *sp for a sampled request. sp is caller-owned scratch
// (a stack variable in the completion callback); Begin never retains it and
// touches no tracer state, so a span that never reaches Finish is just an
// unused value.
//
//e2e:hotpath
func (t *Tracer) Begin(sp *Span, shard, conn uint32, reqID uint64, enqueueNs int64) {
	*sp = Span{ReqID: reqID, Shard: shard, Conn: conn, EnqueueNs: enqueueNs}
}

// Finish completes the span at ackNs, stamps the estimate current now onto
// it, audits it against that stamp, and publishes it to the ring.
//
//e2e:hotpath
func (t *Tracer) Finish(sp *Span, ackNs int64) {
	sp.AckNs = ackNs
	flags := t.estFlags.Load()
	if flags&1 != 0 {
		sp.EstNs = t.estMean.Load()
		sp.EstValid = true
	}
	if flags&2 != 0 {
		sp.EstP99Ns = t.estP99.Load()
		sp.TailValid = true
	}
	if t.audit != nil {
		t.audit.Observe(sp)
	}
	if t.ring != nil {
		t.ring.Push(int(sp.Shard), sp, &sp.Seq)
	}
}
