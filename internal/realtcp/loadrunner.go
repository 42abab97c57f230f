package realtcp

import (
	"errors"
	"sync/atomic"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/shard"
)

const (
	// modeErrorLimit is how many consecutive failing mode applications an
	// endpoint tolerates before its ticks route degraded.
	modeErrorLimit = 3
	// drainTimeout bounds both drivers' wait for outstanding responses
	// after the send window.
	drainTimeout = 5 * time.Second
)

// LoadOptions configures an open-loop load run over a Client.
type LoadOptions struct {
	// Rate is the offered load in requests/second; Duration the issue
	// window.
	Rate     float64
	Duration time.Duration
	// Request is the wire bytes sent per request.
	Request []byte
	// Toggler, when non-nil, is driven from the client's hint estimates
	// every Tick and controls TCP_NODELAY (batch-off = NODELAY set).
	// After three consecutive ticks whose SetNoDelay failed, the run is
	// treated as degraded and the toggler retreats to its safe mode per
	// its own DegradedAfter policy.
	Toggler *policy.Toggler
	// Tick is the estimate/decision period (default 10 ms).
	Tick time.Duration
	// Observer, when non-nil, receives every engine tick for telemetry
	// (internal/obs wires an EngineObserver here). It runs on the tick
	// goroutine and must not block.
	Observer engine.Observer
	// Audit, when non-nil, is polled every tick for estimator-audit stats
	// (kvload wires a span.Auditor here); a drifting audit routes the tick
	// degraded exactly like repeated mode failures do.
	Audit engine.AuditSource
}

// LoadReport summarizes a run. Latencies are not in it: they reach the
// client's OnComplete hook.
type LoadReport struct {
	// Sent counts the requests handed over; requests the pacer skipped on
	// a full in-flight window are not among them.
	Sent      int
	FinalMode policy.Mode
	Toggler   policy.TogglerStats
	// Estimates counts valid per-tick hint estimates observed.
	Estimates int
	// Writes counts the socket writes that carried the Sent requests; the lag
	// is a request's hand-over behind its schedule: how late the pacer ran.
	Writes          uint64
	LagMean, LagMax time.Duration
}

// RunLoad paces requests at the configured rate, driving the shared control
// engine (estimate → toggling decision → TCP_NODELAY) from the client's own
// Little's-law counters, then drains and reports. This is the
// userspace-only deployment of the paper's proposal on stock kernels,
// running the same engine loop as the simulated experiments. RunLoad must
// be the client's only sender while it runs.
func RunLoad(c *Client, opts LoadOptions) (*LoadReport, error) {
	if opts.Rate <= 0 || opts.Duration <= 0 || len(opts.Request) == 0 {
		return nil, errors.New("realtcp: RunLoad needs a positive rate, duration, and a request")
	}
	tick := opts.Tick
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	cfg := engine.Config{ModeErrorLimit: modeErrorLimit, Observer: opts.Observer, Audit: opts.Audit}
	if opts.Toggler != nil {
		cfg.Controller = opts.Toggler
		cfg.Initial = opts.Toggler.Mode()
	}
	ep := engine.New(cfg, c.EnginePort())
	// Ticks and sends run on a single-shard wheel group rather than
	// goroutines of their own: the same scheduling substrate the
	// 50k-connection fleet uses, sized down to one client. The wheel
	// granularity tracks the tick period (capped at 1 ms) so short test
	// ticks stay precise; the pacer fires every wheel tick.
	wheelTick := min(tick, time.Millisecond)
	g := shard.NewGroup(shard.Config{Shards: 1, Tick: wheelTick, Now: c.Elapsed})
	sh := g.Shard(0)
	p := &pacer{c: c, req: opts.Request, interval: rateInterval(opts.Rate),
		sent: new(atomic.Uint64), skipped: new(atomic.Uint64)}
	ended := make(chan error, 1)
	p.sendT.Fn = func(qstate.Time) {
		if over, err := p.fire(); over || err != nil {
			sh.Wheel().Cancel(&p.sendT)
			ended <- err
		}
	}
	writes0 := c.writes.Load()
	sh.Submit(func() {
		ep.Start(shard.Clock{S: sh}, tick)
		p.start(sh.Wheel(), 0, wheelTick, opts.Duration)
	})
	g.Start()
	err := <-ended
	rep := &LoadReport{Sent: int(p.sent.Load()), Writes: c.writes.Load() - writes0, LagMax: p.lagMax}
	if rep.Sent > 0 {
		rep.LagMean = p.lagSum / time.Duration(rep.Sent)
	}
	if err == nil {
		drain(c.Outstanding)
	}
	// Stop the shard loop first (happens-before for everything the ticks
	// wrote), then unschedule the endpoint's wheel timer.
	g.Stop()
	ep.Stop()
	if err != nil {
		return nil, err
	}
	rep.Estimates = ep.Stats().ValidEstimates
	if opts.Toggler != nil {
		rep.Toggler = opts.Toggler.Stats()
		rep.FinalMode = opts.Toggler.Mode()
	}
	return rep, nil
}

// pacer is the one send rule of both drivers: a periodic wheel timer that,
// at every fire, queues each request whose scheduled time has passed,
// advancing the schedule by interval per request, and writes them with one
// Flush. A request that would overfill the client's in-flight window is
// skipped and counted, and the schedule moves on, so the pacer never blocks
// its shard goroutine, the only goroutine that touches it.
type pacer struct {
	c        *Client
	req      []byte
	interval time.Duration
	sendT    shard.Timer

	next, end      time.Duration // on c's clock; end 0: the schedule never ends
	sent, skipped  *atomic.Uint64
	lagSum, lagMax time.Duration
}

// rateInterval is the spacing of a schedule of rate requests per second.
func rateInterval(rate float64) time.Duration {
	return max(time.Duration(float64(time.Second)/rate), 1)
}

// start schedules the first request first from now and arms the pacer to
// fire then and every period after; a positive window ends the schedule
// that long after its first request.
func (p *pacer) start(w *shard.Wheel, first, period, window time.Duration) {
	p.next = time.Duration(p.c.Elapsed()) + first
	if window > 0 {
		p.end = p.next + window
	}
	w.ArmPeriodic(&p.sendT, first, period)
}

// fire hands over every request due by now and reports whether the schedule
// is over: past its end, with every request scheduled before it handed over.
func (p *pacer) fire() (over bool, err error) {
	now := time.Duration(p.c.Elapsed())
	due := now
	if over = p.end > 0 && now >= p.end; over {
		due = p.end - 1
	}
	for ; p.next <= due; p.next += p.interval {
		if len(p.c.inflight) == cap(p.c.inflight) { // only the read loop takes stamps out
			p.skipped.Add(1)
			continue
		}
		if err = p.c.Queue(p.req); err != nil {
			return over, err
		}
		p.sent.Add(1)
		lag := now - p.next
		p.lagSum += lag
		p.lagMax = max(p.lagMax, lag)
	}
	return over, p.c.Flush()
}

// drain waits until outstanding reports no unanswered request, or
// drainTimeout passes.
func drain(outstanding func() int64) {
	for deadline := time.Now().Add(drainTimeout); outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}
