package realtcp

// The fleet runner: the one driver of the real-socket client, from kvload's
// single connection (a fleet of one) to the 50k-connection proof for the
// shared-nothing shard engine. One process holds Conns concurrent
// connections to a kvserver, every one of them running the paper's control
// loop — and not one of them owning a goroutine or a timer.
// Each connection hashes to a shard; its estimate/decision tick, its send
// pacing, and its reconnect backoff are all Timers on that shard's wheel, so
// the steady-state cost per connection is a wheel slot plus the parked
// read-loop goroutine the Go netpoller already multiplexes for free.
// Connections split into a controlled half (ε-greedy NODELAY toggling driven
// by their own hint estimates, with Toggle) and a Nagle baseline half, and
// per-request latencies record into per-connection DelayHists that merge
// into the controlled-vs-Nagle p50/p99/p999 comparison at report time. With
// Spans, every connection traces its sampled requests stamped with its own
// estimate, into one ring and one auditor.

import (
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/shard"
)

// FleetOptions configures a fleet run. Only Addr, Conns, Duration and
// Request are required.
type FleetOptions struct {
	// Addr is the server address.
	Addr string
	// Conns is the fleet size. Even indices are the controlled group, odd
	// indices the Nagle baseline, so the two groups interleave across
	// shards and dial order. Each connection's in-flight window is
	// max(32, 4096/Conns) requests and its read buffer max(4 KiB,
	// 64 KiB/Conns): one connection gets 4096 and 64 KiB, 128 and more get
	// 32 and 4 KiB (64 KiB × 50k would be 3 GB of buffers).
	Conns int
	// Active is how many connections send at Rate (default Conns/10,
	// minimum 1); the rest are idle-mostly, sending one heartbeat every
	// IdleEvery. This is the paper's fleet shape: most connections idle,
	// a hot subset saturating, every one of them still estimated.
	Active int
	// Rate is each active connection's request rate (default 50/s).
	Rate float64
	// IdleEvery is the idle connections' heartbeat period (default 5s).
	IdleEvery time.Duration
	// Duration is each connection's send window, from its dial: an active
	// connection's schedule holds Rate × Duration requests.
	Duration time.Duration
	// Request is the wire request active connections send; IdleRequest
	// (default Request) is the heartbeat.
	Request     []byte
	IdleRequest []byte
	// Shards is the shard count (default min(GOMAXPROCS, Conns)); Tick each
	// connection's control tick (default 250ms — coarse, because the whole
	// point is running the loop on 50k connections within a budgeted
	// control-plane cost). The wheels tick every min(Tick, 1 ms).
	Shards int
	Tick   time.Duration
	// Toggle runs ε-greedy NODELAY toggling on the controlled group, each
	// connection on its own estimates; without it the group's endpoints
	// are passive estimators on Go's NODELAY default.
	Toggle bool
	// SLO is the controlled group's toggling objective (default 500µs).
	SLO time.Duration
	// Seed derives every controlled connection's exploration RNG via
	// splitmix64(Seed, index), so runs are reproducible (default 1).
	Seed int64
	// DialWorkers is how many connections dial at once during the ramp
	// (default 128, at most Conns).
	DialWorkers int
	// SourceIPs > 0 rotates dial source addresses 127.0.0.{2..2+n-1} to
	// stretch past single-address ephemeral-port limits; 0 auto-enables
	// 64 of them for loopback targets beyond 16k connections; negative
	// disables.
	SourceIPs int
	// Observer attaches to connection 0's endpoint (see engine.Config):
	// one decision stream for the decision ring and the metrics. It runs
	// on that connection's shard goroutine and must not block.
	Observer engine.Observer
	// Spans, when non-nil, traces every connection: each builds its own
	// span.New(*Spans), stamped with its own endpoint's estimate at every
	// tick, and samples request id (conn<<32 ^ id) of each completed run.
	// All of them share Spans.Ring and Spans.Audit; a non-nil Audit is
	// every connection's engine.Config.Audit, so the drift verdict is
	// fleet-wide.
	Spans *span.Config
	// OnComplete, when non-nil, receives every completion on every
	// connection as runs: the connection index, its shard, the
	// per-incarnation FIFO id of the run's first request, the run's length,
	// the send/ack nanosecond stamps on that connection's monotonic
	// timebase, and the schedule of the run's requests: the first due at
	// dueNs, on the same timebase, and the rest gapNs apart (see
	// DialOptions.OnComplete). It runs on read-loop
	// goroutines — many concurrently — and must not block. Request ids
	// restart at 0 when a connection reconnects.
	OnComplete func(conn, shard int, firstID uint64, n int, sentNs, ackNs, dueNs, gapNs int64)
}

// TailSummary is one group's merged latency distribution.
type TailSummary struct {
	Conns            int
	Count            uint64
	P50, P99, P999   time.Duration
	DegradedTicks    uint64
	ValidEstimates   uint64
	ControlTicks     uint64
	ModeErrors       uint64
	FinalBatchOnFrac float64 // controlled group: fraction ending batch-on
}

// FleetReport is a completed run's accounting.
type FleetReport struct {
	Conns, Active int
	DialErrors    int
	Elapsed       time.Duration

	Controlled TailSummary
	Nagle      TailSummary
	// Toggler sums the controlled group's toggler stats (zero without
	// Toggle).
	Toggler policy.TogglerStats

	Sent, Completed, Skipped uint64
	Reconnects, DeadConns    uint64
	// Writes counts the socket writes that carried the Sent requests; the
	// lag is a request's hand-over behind its schedule: how late the
	// pacers ran.
	Writes          uint64
	LagMean, LagMax time.Duration

	// Shards snapshots each shard's wheel/loop counters at teardown;
	// MaxBehindTicks is their worst tick backlog (0 = every shard kept up).
	Shards         []shard.Stats
	MaxBehindTicks int64
	// Audit is the spans' auditor's summary at teardown (zero without
	// Spans.Audit).
	Audit engine.AuditStats
	// FinalRunQueue sums run-queue depth after stop — nonzero means work
	// was lost, which the scale smoke asserts never happens.
	FinalRunQueue int
}

// A connection dials within dialTimeout; a failed one redials up to
// reconnectMax times, backing off from reconnectBase and doubling on its
// shard wheel. After the send windows, Run waits up to drainTimeout for
// outstanding responses. After three consecutive ticks whose SetNoDelay
// failed (modeErrorLimit), an endpoint's ticks route degraded.
const (
	dialTimeout    = 5 * time.Second
	reconnectMax   = 4
	reconnectBase  = 100 * time.Millisecond
	drainTimeout   = 5 * time.Second
	modeErrorLimit = 3
)

// paddedCell is a cache-line-padded counter cell (one per shard per
// counter), so the shards' read loops never false-share.
type paddedCell struct {
	v atomic.Uint64
	_ [56]byte
}

type fleetCounters struct {
	sent, completed, skipped, reconnects, dead []paddedCell
}

func newFleetCounters(shards int) fleetCounters {
	return fleetCounters{
		sent:       make([]paddedCell, shards),
		completed:  make([]paddedCell, shards),
		skipped:    make([]paddedCell, shards),
		reconnects: make([]paddedCell, shards),
		dead:       make([]paddedCell, shards),
	}
}

func sumCells(cs []paddedCell) uint64 {
	var t uint64
	for i := range cs {
		t += cs[i].v.Load()
	}
	return t
}

// FleetShardLive is one shard's live counters, readable during the run —
// what kvload's GaugeFuncs roll up into /metrics at scrape time.
type FleetShardLive struct {
	Sent, Completed, Skipped uint64
	Reconnects, DeadConns    uint64
	Wheel                    shard.Stats
}

// Fleet is a configured high-fan-in run. Build with NewFleet, execute with
// Run; the live accessors are safe concurrently with Run.
type Fleet struct {
	opts  FleetOptions
	g     *shard.Group
	conns []*fleetConn
	ctrs  fleetCounters

	dialErrs atomic.Int64
	// pending counts the live connections whose schedule has not ended.
	pending sync.WaitGroup
}

// fleetConn is one connection's shard-owned control block. After setup,
// every field is owned by the connection's shard goroutine, except hist
// and completed-counting (written by the client's read loop, read after
// Close) and the atomic fleet counters.
type fleetConn struct {
	f          *Fleet
	idx        int
	sh         *shard.Shard
	controlled bool

	pacer // the client, its request and its send schedule
	ep    *engine.Endpoint
	tog   *policy.Toggler // controlled with Toggle; kept across reconnects
	tr    *span.Tracer    // with Spans; kept across reconnects

	tickT  shard.Timer
	reconT shard.Timer

	dead     bool
	ended    bool // the schedule is over, or the connection given up
	attempts int
	backoff  time.Duration

	// prior accumulates engine stats across reconnect-driven endpoint
	// swaps so the report sees the connection's whole history.
	prior engine.Stats

	hist qstate.DelayHist // written only by the connection's read loop
}

// NewFleet validates options and fills defaults; dialing happens in Run.
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if opts.Addr == "" || opts.Conns <= 0 || opts.Duration <= 0 || len(opts.Request) == 0 {
		return nil, errors.New("realtcp: fleet needs an address, a connection count, a duration, and a request")
	}
	if opts.Active <= 0 {
		opts.Active = max(opts.Conns/10, 1)
	}
	opts.Active = min(opts.Active, opts.Conns)
	if opts.Rate <= 0 {
		opts.Rate = 50
	}
	if opts.IdleEvery <= 0 {
		opts.IdleEvery = 5 * time.Second
	}
	if len(opts.IdleRequest) == 0 {
		opts.IdleRequest = opts.Request
	}
	if opts.Tick <= 0 {
		opts.Tick = 250 * time.Millisecond
	}
	if opts.SLO <= 0 {
		opts.SLO = 500 * time.Microsecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Shards <= 0 {
		opts.Shards = min(runtime.GOMAXPROCS(0), opts.Conns)
	}
	if opts.DialWorkers <= 0 {
		opts.DialWorkers = 128
	}
	opts.DialWorkers = min(opts.DialWorkers, opts.Conns)
	if opts.SourceIPs == 0 && opts.Conns > 16000 && len(opts.Addr) >= 4 && opts.Addr[:4] == "127." {
		opts.SourceIPs = 64
	}
	g := shard.NewGroup(shard.Config{Shards: opts.Shards, Tick: min(opts.Tick, time.Millisecond)})
	return &Fleet{
		opts:  opts,
		g:     g,
		conns: make([]*fleetConn, opts.Conns),
		ctrs:  newFleetCounters(g.Len()),
	}, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return f.g.Len() }

// ShardLive returns shard i's live counters (safe during Run: all cells
// are atomic).
func (f *Fleet) ShardLive(i int) FleetShardLive {
	return FleetShardLive{
		Sent:       f.ctrs.sent[i].v.Load(),
		Completed:  f.ctrs.completed[i].v.Load(),
		Skipped:    f.ctrs.skipped[i].v.Load(),
		Reconnects: f.ctrs.reconnects[i].v.Load(),
		DeadConns:  f.ctrs.dead[i].v.Load(),
		Wheel:      f.g.Shard(i).Stats(),
	}
}

// TogglerStats returns connection 0's toggler stats (zero without Toggle):
// the observed connection's, for an observer that reports exploration. It
// reads shard-owned state, so call it from the Observer or after Run.
func (f *Fleet) TogglerStats() policy.TogglerStats {
	if fc := f.conns[0]; fc != nil && fc.tog != nil {
		return fc.tog.Stats()
	}
	return policy.TogglerStats{}
}

// splitmix64 derives per-connection seeds from the run seed — the same
// per-index stream derivation the workload zoo uses, so connection k
// explores identically run to run regardless of dial order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// srcAddrFor returns the rotated dial source address for connection idx,
// or "" for the default.
func (f *Fleet) srcAddrFor(idx int) string {
	if f.opts.SourceIPs <= 0 {
		return ""
	}
	return "127.0.0." + strconv.Itoa(2+idx%f.opts.SourceIPs) + ":0"
}

// phase staggers connection idx's timers so 50k schedules spread across
// wheel slots instead of thundering on one boundary.
func phase(idx int) time.Duration { return time.Duration(idx) * 7 * time.Millisecond }

// dial connects fleetConn idx, builds its endpoint and starts its schedule,
// offset by its phase within one request interval; runs on a dial worker.
// The returned conn still needs its shard setup Submitted.
func (f *Fleet) dial(idx int) *fleetConn {
	o := f.opts
	fc := &fleetConn{
		f:          f,
		idx:        idx,
		sh:         f.g.Of(shard.HashUint64(uint64(idx))),
		controlled: idx%2 == 0,
		backoff:    reconnectBase,
	}
	id := fc.sh.ID()
	fc.pacer = pacer{req: o.IdleRequest, interval: o.IdleEvery,
		sent: &f.ctrs.sent[id].v, skipped: &f.ctrs.skipped[id].v}
	if idx < o.Active {
		fc.req, fc.interval = o.Request, rateInterval(o.Rate)
	}
	if fc.controlled && o.Toggle {
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(o.Seed) + uint64(idx)))))
		fc.tog = policy.NewToggler(policy.ThroughputUnderSLO{SLO: o.SLO},
			policy.DefaultTogglerConfig(), policy.BatchOff, rng)
	}
	if o.Spans != nil {
		fc.tr = span.New(*o.Spans)
	}
	c, err := fc.dialClient()
	if err != nil {
		f.dialErrs.Add(1)
		fc.dead = true
		f.ctrs.dead[id].v.Add(1)
		return fc
	}
	fc.adoptClient(c)
	now := time.Duration(fc.sh.Now())
	fc.next, fc.end = now+phase(idx)%fc.interval, now+o.Duration
	return fc
}

// dialClient dials a new incarnation of the connection.
func (fc *fleetConn) dialClient() (*Client, error) {
	o := fc.f.opts
	return DialWith(o.Addr, DialOptions{
		MaxInflight:  max(32, 4096/o.Conns),
		DialTimeout:  dialTimeout,
		ReadBufBytes: max(4<<10, 64<<10/o.Conns),
		OnComplete:   fc.onComplete,
		LocalAddr:    fc.f.srcAddrFor(fc.idx),
	})
}

// adoptClient points the control block at a (re)dialed client: endpoint,
// initial mode. Called from a dial worker before the shard setup, or on the
// shard goroutine at reconnect.
func (fc *fleetConn) adoptClient(c *Client) {
	fc.c = c
	o := fc.f.opts
	cfg := engine.Config{ModeErrorLimit: modeErrorLimit}
	if fc.idx == 0 {
		cfg.Observer = o.Observer
	}
	if o.Spans != nil && o.Spans.Audit != nil {
		// Only a non-nil auditor: a nil *span.Auditor in the interface
		// would be polled, and panic, every tick.
		cfg.Audit = o.Spans.Audit
	}
	if fc.tog != nil {
		cfg.Controller, cfg.Initial = fc.tog, fc.tog.Mode()
	}
	fc.ep = engine.New(cfg, c.EnginePort())
	if !fc.controlled {
		// The baseline group holds classic Nagle batching; its passive
		// endpoint still estimates every tick but applies nothing.
		c.SetNoDelay(false)
	}
}

// onComplete runs on the connection's read loop, once per run: one
// histogram write (single writer per hist), one atomic cell add, a span for
// each sampled request, and the fleet's hook.
func (fc *fleetConn) onComplete(firstID uint64, n int, sentNs, ackNs, dueNs, gapNs int64) {
	fc.hist.RecordN(time.Duration(ackNs-sentNs), uint32(n))
	fc.f.ctrs.completed[fc.sh.ID()].v.Add(uint64(n))
	if fc.tr != nil {
		// The sampling key folds the connection index into the
		// per-incarnation FIFO id, so 1-in-N holds fleet-wide.
		for id := firstID; id < firstID+uint64(n); id++ {
			if fc.tr.Sampled(uint64(fc.idx)<<32 ^ id) {
				var sp span.Span // the tracer never retains it
				fc.tr.Begin(&sp, uint32(fc.sh.ID()), uint32(fc.idx), id, sentNs)
				fc.tr.Finish(&sp, ackNs)
			}
		}
	}
	if fc.f.opts.OnComplete != nil {
		fc.f.opts.OnComplete(fc.idx, fc.sh.ID(), firstID, n, sentNs, ackNs, dueNs, gapNs)
	}
}

// setup arms the connection's wheel timers; runs on the shard goroutine.
// The control tick's first fire is staggered by the connection's phase;
// the pacer fires on the next wheel tick and hands over whatever its
// schedule holds by then.
func (fc *fleetConn) setup() {
	tick := fc.f.opts.Tick
	fc.tickT.Fn = fc.onTick
	fc.sh.Wheel().ArmPeriodic(&fc.tickT, tick+phase(fc.idx)%tick, tick)
	fc.sendT.Fn = fc.onPace
	fc.sh.Wheel().Arm(&fc.sendT, 0)
	fc.reconT.Fn = fc.onReconnectDue
}

// onTick is the shard-callable engine tick: liveness probe, then the
// estimate→policy loop, straight on the shard goroutine, whose estimate
// stamps the connection's tracer.
func (fc *fleetConn) onTick(qstate.Time) {
	select {
	case <-fc.c.Done():
		fc.onDead()
		return
	default:
	}
	now := fc.c.Elapsed()
	r := fc.ep.Tick(now)
	if fc.tr != nil {
		fc.tr.ObserveTick(now, r)
	}
}

// onPace hands over every request due and re-arms for the next one or the
// schedule's end, whichever comes first; a failed send moves the
// connection onto the reconnect path.
func (fc *fleetConn) onPace(qstate.Time) {
	now := time.Duration(fc.sh.Now())
	over, err := fc.fire(now)
	switch {
	case err != nil:
		fc.onDead()
	case over:
		fc.endSchedule()
	default:
		fc.sh.Wheel().Arm(&fc.sendT, min(fc.next, fc.end)-now)
	}
}

// endSchedule releases Run's wait on this connection, once.
func (fc *fleetConn) endSchedule() {
	if !fc.ended {
		fc.ended = true
		fc.f.pending.Done()
	}
}

// onDead moves a failed connection onto the reconnect path: unschedule its
// tick/send timers, roll its endpoint stats into the accumulator, and arm
// the backoff timer on the wheel (no goroutine sleeps anywhere).
func (fc *fleetConn) onDead() {
	fc.sh.Wheel().Cancel(&fc.tickT)
	fc.sh.Wheel().Cancel(&fc.sendT)
	fc.dead = true
	fc.prior = addEngineStats(fc.prior, fc.ep.Stats())
	fc.f.ctrs.dead[fc.sh.ID()].v.Add(1)
	fc.retry()
}

// retry arms the next redial after the backoff, doubling it; past
// reconnectMax it gives the connection up, which ends its schedule.
func (fc *fleetConn) retry() {
	if fc.attempts >= reconnectMax {
		fc.endSchedule()
		return
	}
	fc.attempts++
	fc.sh.Wheel().Arm(&fc.reconT, fc.backoff)
	fc.backoff *= 2
}

// onReconnectDue fires on the wheel when the backoff expires; the dial
// itself is blocking I/O, so it hops to a short-lived goroutine and hands
// the result back through the shard's run queue.
func (fc *fleetConn) onReconnectDue(now qstate.Time) {
	go fc.redial()
}

// redial closes the dead client (waiting out its read loop), dials anew,
// and Submits adoption back onto the shard, where the schedule resumes.
// Runs on its own goroutine; the only fleetConn fields it touches are the
// ones the shard handed over by scheduling it (the dead connection's
// client).
func (fc *fleetConn) redial() {
	fc.c.Close()
	c, err := fc.dialClient()
	ok := fc.sh.Submit(func() {
		if err != nil {
			fc.retry()
			return
		}
		fc.adoptClient(c)
		fc.dead = false
		fc.f.ctrs.dead[fc.sh.ID()].v.Add(^uint64(0)) // -1: back alive
		fc.f.ctrs.reconnects[fc.sh.ID()].v.Add(1)
		fc.setup()
	})
	if !ok && err == nil {
		c.Close() // fleet stopped while we were dialing
	}
}

func addEngineStats(a, b engine.Stats) engine.Stats {
	a.TotalTicks += b.TotalTicks
	a.OnTicks += b.OnTicks
	a.DegradedTicks += b.DegradedTicks
	a.TailAbstainedTicks += b.TailAbstainedTicks
	a.AuditDriftTicks += b.AuditDriftTicks
	a.ValidEstimates += b.ValidEstimates
	a.ModeErrors += b.ModeErrors
	return a
}

// Run executes the fleet: ramp, hold until every live connection's
// schedule has ended, drain, teardown, report. It blocks for roughly
// Duration plus ramp and drain.
func (f *Fleet) Run() (*FleetReport, error) {
	o := f.opts
	start := time.Now()
	f.g.Start()

	// Ramp: dial workers fill f.conns and Submit each connection's timer
	// setup to its shard. Submit blocks when a shard's queue fills — that
	// backpressure paces the ramp instead of flooding the loops.
	var wg sync.WaitGroup
	next := make(chan int, o.DialWorkers)
	for w := 0; w < o.DialWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				fc := f.dial(idx)
				f.conns[idx] = fc
				if !fc.dead {
					f.pending.Add(1)
					fc.sh.Submit(fc.setup)
				}
			}
		}()
	}
	for i := 0; i < o.Conns; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	if int(f.dialErrs.Load()) == o.Conns {
		f.g.Stop()
		return nil, errors.New("realtcp: fleet failed to establish any connection")
	}

	// Quiesce once the schedules are over: stop the shard loops (no further
	// sends or ticks), then wait for in-flight responses to land on the
	// read loops.
	f.pending.Wait()
	f.g.Stop()
	outstanding := func() (n int64) {
		for _, fc := range f.conns {
			if fc.c != nil && !fc.dead {
				n += fc.c.Outstanding()
			}
		}
		return n
	}
	for deadline := time.Now().Add(drainTimeout); outstanding() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	// Teardown: close every client (waits out its read loop, so the
	// histograms are safe to merge afterwards), in parallel.
	closeq := make(chan *Client, o.DialWorkers)
	var cwg sync.WaitGroup
	for w := 0; w < o.DialWorkers; w++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for c := range closeq {
				c.Close()
			}
		}()
	}
	for _, fc := range f.conns {
		if fc.c != nil {
			closeq <- fc.c
		}
	}
	close(closeq)
	cwg.Wait()

	return f.report(time.Since(start)), nil
}

// report aggregates after teardown: shard loops stopped and read loops
// exited, so every fleetConn is safe to read directly.
func (f *Fleet) report(elapsed time.Duration) *FleetReport {
	rep := &FleetReport{
		Conns:      f.opts.Conns,
		Active:     f.opts.Active,
		DialErrors: int(f.dialErrs.Load()),
		Elapsed:    elapsed,
		Sent:       sumCells(f.ctrs.sent),
		Completed:  sumCells(f.ctrs.completed),
		Skipped:    sumCells(f.ctrs.skipped),
		Reconnects: sumCells(f.ctrs.reconnects),
		DeadConns:  sumCells(f.ctrs.dead),
		Shards:     f.g.Stats(),
	}
	for _, st := range rep.Shards {
		rep.MaxBehindTicks = max(rep.MaxBehindTicks, st.MaxBehind)
		rep.FinalRunQueue += st.RunQueue
	}
	if o := f.opts.Spans; o != nil && o.Audit != nil {
		rep.Audit = o.Audit.AuditStats()
	}
	var ctrlHist, nagleHist qstate.DelayHist
	var lagSum time.Duration
	batchOn := 0
	for _, fc := range f.conns {
		if fc.c == nil {
			continue
		}
		rep.Writes += fc.writes
		lagSum += fc.lagSum
		rep.LagMax = max(rep.LagMax, fc.lagMax)
		sum, hist := &rep.Nagle, &nagleHist
		if fc.controlled {
			sum, hist = &rep.Controlled, &ctrlHist
		}
		sum.Conns++
		st := addEngineStats(fc.prior, fc.ep.Stats())
		sum.ControlTicks += uint64(st.TotalTicks)
		sum.DegradedTicks += uint64(st.DegradedTicks)
		sum.ValidEstimates += uint64(st.ValidEstimates)
		sum.ModeErrors += uint64(st.ModeErrors)
		hist.Merge(&fc.hist)
		if fc.tog == nil {
			continue
		}
		if fc.tog.Mode() == policy.BatchOn {
			batchOn++
		}
		ts, t := fc.tog.Stats(), &rep.Toggler
		t.Decisions += ts.Decisions
		t.Switches += ts.Switches
		t.Explorations += ts.Explorations
		t.Invalid += ts.Invalid
		t.Degraded += ts.Degraded
		t.SafeFallbacks += ts.SafeFallbacks
	}
	if rep.Sent > 0 {
		rep.LagMean = lagSum / time.Duration(rep.Sent)
	}
	fill := func(sum *TailSummary, h *qstate.DelayHist) {
		sum.Count = h.Count()
		sum.P50 = h.Quantile(0.50)
		sum.P99 = h.Quantile(0.99)
		sum.P999 = h.Quantile(0.999)
	}
	fill(&rep.Controlled, &ctrlHist)
	fill(&rep.Nagle, &nagleHist)
	if rep.Controlled.Conns > 0 {
		rep.Controlled.FinalBatchOnFrac = float64(batchOn) / float64(rep.Controlled.Conns)
	}
	return rep
}

// pacer is a connection's send rule: a wheel timer that, at every fire,
// hands over each request whose scheduled time has passed as one run,
// advancing the schedule by interval per request, and writes them with one
// Flush. A request that would overfill the client's in-flight window is
// skipped and counted, and the schedule moves on, so the pacer never blocks
// its shard goroutine, the only goroutine that touches it.
type pacer struct {
	c        *Client
	req      []byte
	interval time.Duration
	sendT    shard.Timer

	next, end      time.Duration // on the shard clock; end is exclusive
	sent, skipped  *atomic.Uint64
	writes         uint64
	lagSum, lagMax time.Duration
}

// rateInterval is the spacing of a schedule of rate requests per second.
func rateInterval(rate float64) time.Duration {
	return max(time.Duration(float64(time.Second)/rate), 1)
}

// fire hands over every request due by now that fits the window, in one
// Queue and one Flush, and reports whether the schedule is over: past its
// end, with every request scheduled before it handed over.
func (p *pacer) fire(now time.Duration) (over bool, err error) {
	due := now
	if over = now >= p.end; over {
		due = p.end - 1
	}
	// The pacer is the client's only sender, so the room it sees only grows
	// until its own Queue.
	room := p.c.room()
	first := p.next // the first handed over: the rest follow interval apart
	k, skipped := 0, uint64(0)
	lagSum, lagMax := time.Duration(0), p.lagMax
	for ; p.next <= due; p.next += p.interval {
		if k == room {
			skipped++
			continue
		}
		k++
		lag := now - p.next
		lagSum += lag
		lagMax = max(lagMax, lag)
	}
	p.skipped.Add(skipped)
	if k == 0 {
		return over, nil
	}
	if err = p.c.queueLate(p.req, k, now-first, p.interval); err != nil {
		return over, err
	}
	p.sent.Add(uint64(k))
	p.lagSum += lagSum
	p.lagMax = lagMax
	p.writes++
	return over, p.c.Flush()
}
