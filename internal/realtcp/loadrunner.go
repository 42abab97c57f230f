package realtcp

import (
	"errors"
	"sort"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/shard"
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
	// After ModeErrorLimit consecutive ticks whose SetNoDelay failed, the
	// run is treated as degraded and the toggler retreats to its safe
	// mode per its own DegradedAfter policy.
	Toggler *policy.Toggler
	// Tick is the estimate/decision period (default 10 ms).
	Tick time.Duration
	// DrainTimeout bounds the wait for outstanding responses (default
	// 5 s).
	DrainTimeout time.Duration
	// ModeErrorLimit is how many consecutive failing mode applications
	// are tolerated before degrading (default 3; negative disables).
	ModeErrorLimit int
	// Observer, when non-nil, receives every engine tick for telemetry
	// (internal/obs wires an EngineObserver here). It runs on the tick
	// goroutine and must not block.
	Observer engine.Observer
	// Audit, when non-nil, is polled every tick for estimator-audit stats
	// (kvload wires a span.Auditor here); a drifting audit routes the tick
	// degraded exactly like repeated mode failures do.
	Audit engine.AuditSource
}

// LoadReport summarizes a run.
type LoadReport struct {
	Sent      int
	Mean      time.Duration
	P50, P99  time.Duration
	Max       time.Duration
	FinalMode policy.Mode
	Toggler   policy.TogglerStats
	// Estimates counts valid per-tick hint estimates observed.
	Estimates int
	// TotalTicks counts decision ticks; DegradedTicks the subset routed
	// down the degraded path after repeated mode failures.
	TotalTicks    int
	DegradedTicks int
	// NoDelayErrors counts individual SetNoDelay failures — a failure is
	// an outcome, not a silent no-op.
	NoDelayErrors int
	// Writes counts the socket writes that carried the Sent requests; the lag
	// is a request's hand-over behind its schedule: how late the pacer ran.
	Writes          uint64
	LagMean, LagMax time.Duration
}

// RunLoad paces requests at the configured rate, driving the shared control
// engine (estimate → toggling decision → TCP_NODELAY) from the client's own
// Little's-law counters, then drains and reports. This is the
// userspace-only deployment of the paper's proposal on stock kernels,
// running the same engine loop as the simulated experiments.
func RunLoad(c *Client, opts LoadOptions) (*LoadReport, error) {
	if opts.Rate <= 0 || opts.Duration <= 0 || len(opts.Request) == 0 {
		return nil, errors.New("realtcp: RunLoad needs a positive rate, duration, and a request")
	}
	tick := opts.Tick
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	drainTO := opts.DrainTimeout
	if drainTO <= 0 {
		drainTO = 5 * time.Second
	}
	errLimit := opts.ModeErrorLimit
	if errLimit == 0 {
		errLimit = 3
	} else if errLimit < 0 {
		errLimit = 0
	}

	rep := &LoadReport{}
	cfg := engine.Config{ModeErrorLimit: errLimit, Observer: opts.Observer, Audit: opts.Audit}
	if opts.Toggler != nil {
		cfg.Controller = opts.Toggler
		cfg.Initial = opts.Toggler.Mode()
	}
	ep := engine.New(cfg, c.EnginePort())
	// Ticks run on a single-shard wheel group rather than a per-connection
	// ticker goroutine: the same scheduling substrate the 50k-connection
	// fleet uses, sized down to one client. The wheel granularity tracks
	// the tick period (capped at 1 ms) so short test ticks stay precise.
	wheelTick := time.Millisecond
	if tick < wheelTick {
		wheelTick = tick
	}
	g := shard.NewGroup(shard.Config{Shards: 1, Tick: wheelTick, Now: c.Elapsed})
	g.Shard(0).Submit(func() {
		ep.Start(shard.Clock{S: g.Shard(0)}, tick)
	})
	g.Start()
	finish := func() {
		// Stop the shard loop first (happens-before for everything the
		// ticks wrote), then unschedule the endpoint's wheel timer.
		g.Stop()
		ep.Stop()
		st := ep.Stats()
		rep.Estimates = st.ValidEstimates
		rep.TotalTicks = st.TotalTicks
		rep.DegradedTicks = st.DegradedTicks
		rep.NoDelayErrors = st.ModeErrors
	}

	// Every request that is due is queued and the batch is written when the
	// next one is not — before the sleep, before the drain: no added wait.
	interval := time.Duration(float64(time.Second) / opts.Rate)
	writes0 := c.writes.Load()
	next := time.Now()
	deadline := next.Add(opts.Duration)
	var lagSum time.Duration
	var err error
	for now := next; err == nil && now.Before(deadline); now = time.Now() {
		lag := now.Sub(next)
		if lag < 0 {
			err = c.Flush()
			time.Sleep(-lag)
			continue
		}
		err = c.Queue(opts.Request)
		rep.Sent++
		next = next.Add(interval)
		lagSum += lag
		if lag > rep.LagMax {
			rep.LagMax = lag
		}
	}
	if err == nil {
		err = c.Flush()
	}
	if err != nil {
		finish()
		return nil, err
	}
	rep.Writes = c.writes.Load() - writes0
	rep.LagMean = lagSum / time.Duration(rep.Sent)

	drainDeadline := time.Now().Add(drainTO)
	for c.Outstanding() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	finish()

	lats := c.Latencies()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		rep.Mean = sum / time.Duration(len(lats))
		rep.P50 = lats[len(lats)/2]
		rep.P99 = lats[len(lats)*99/100]
		rep.Max = lats[len(lats)-1]
	}
	if opts.Toggler != nil {
		rep.Toggler = opts.Toggler.Stats()
		rep.FinalMode = opts.Toggler.Mode()
	}
	return rep, nil
}
