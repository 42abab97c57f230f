// Package loadgen is the Lancet-analogue load generator (§4 Methodology):
// an open-loop client that issues RESP requests at a configured rate with
// Poisson or uniform arrivals, pipelines them over one simulated connection,
// and records per-request latency.
//
// Latency is measured from the request's *scheduled* arrival time to the
// moment the client application reads its response — the standard
// open-loop discipline that avoids coordinated omission, mirroring Lancet's
// self-correcting measurement.
package loadgen

import (
	"fmt"
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/hints"
	"e2ebatch/internal/metrics"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// Arrival selects the inter-arrival process.
type Arrival int

const (
	// Uniform spaces requests exactly 1/rate apart.
	Uniform Arrival = iota
	// Poisson draws exponential inter-arrival gaps (open-loop memoryless
	// clients, Lancet's default).
	Poisson
)

// Config parameterizes a load run.
type Config struct {
	// Rate is the offered load in requests per second (open loop).
	Rate float64
	// Concurrency, when positive, switches to a closed loop: that many
	// requests are kept outstanding at all times and Rate is ignored —
	// the redis-benchmark discipline. Note that with Concurrency 1 the
	// sender never has data in flight when it sends, so Nagle-style
	// holds never trigger: closed loops mask the batching tradeoff the
	// open-loop experiments expose.
	Concurrency int
	// Arrival is the inter-arrival process.
	Arrival Arrival
	// RateFn, when non-nil, modulates the open-loop offered rate over
	// time: while scheduling the next arrival the instantaneous rate is
	// Rate·RateFn(elapsed), with elapsed the virtual time since the run
	// started. This is how the workload zoo expresses bursty and diurnal
	// arrival processes while staying deterministic — gaps are still drawn
	// from the simulator's seeded RNG, only their mean moves. Multipliers
	// are clamped below at 1e-3 so a mis-specified shape cannot stall the
	// arrival chain. Ignored in closed loops (Concurrency > 0).
	RateFn func(elapsed time.Duration) float64
	// Warmup discards samples whose requests were issued before this
	// offset; Duration is how long requests are issued in total.
	Warmup   time.Duration
	Duration time.Duration
	// Drain bounds how long to wait for outstanding responses after the
	// last request (default 10× warmup-to-duration gap is overkill; zero
	// means 100 ms).
	Drain time.Duration

	// SendCosts prices issuing one request on the client app CPU
	// (encode + send syscall).
	SendCosts cpumodel.Costs
	// ReadCosts.PerBatch prices one read wakeup (β).
	ReadCosts cpumodel.Costs
	// PerResponse is the paper's client-side processing cost c, charged
	// per response; PerRespByteNS adds a byte-proportional component.
	PerResponse   time.Duration
	PerRespByteNS float64

	// SyscallBatch > 1 makes the client aggregate that many requests per
	// send(2) — the syscall batching that breaks the send-unit
	// approximation and motivates the hint API (§3.3). Requests wait in
	// userspace until their batch fills.
	SyscallBatch int

	// WindowEvery, when positive, additionally buckets samples into
	// consecutive time windows of this length (by completion time,
	// including warmup), exposing latency-over-time series in
	// Result.Windows — used to visualize policy convergence.
	WindowEvery time.Duration

	// OnComplete, when non-nil, observes every completed request as it
	// finishes: reqID is the 0-based completion index (equal to the issue
	// index — the pipeline is FIFO), scheduledNs/completedNs the virtual
	// timestamps, unfiltered by warmup. This is the per-request export
	// seam the span-tracing plane hangs off without this package importing
	// it; a nil hook costs nothing, so instrumented and uninstrumented
	// runs execute identical event sequences.
	OnComplete func(reqID uint64, scheduledNs, completedNs int64)
}

// DefaultConfig returns a modest client profile.
func DefaultConfig(rate float64, duration time.Duration) Config {
	return Config{
		Rate:        rate,
		Arrival:     Poisson,
		Warmup:      duration / 5,
		Duration:    duration,
		SendCosts:   cpumodel.Costs{PerItem: 2 * time.Microsecond, PerByteNS: 0.2},
		ReadCosts:   cpumodel.Costs{PerBatch: 2 * time.Microsecond},
		PerResponse: 3 * time.Microsecond,
	}
}

// RequestMaker produces the i-th request's wire bytes plus an integer kind
// used to separate latency distributions (e.g. SET vs GET in Figure 4b).
type RequestMaker func(i uint64) (wire []byte, kind int)

// Result summarizes a run.
type Result struct {
	Issued    uint64
	Completed uint64
	Dropped   uint64 // issued but never answered before the drain deadline

	// Latency aggregates post-warmup samples; ByKind splits them by the
	// RequestMaker's kind.
	Latency metrics.Histogram
	ByKind  map[int]*metrics.Histogram

	// OfferedRate is the configured rate; AchievedRate counts post-warmup
	// completions against the measurement window.
	OfferedRate  float64
	AchievedRate float64

	// Windows is the latency-over-time series (Config.WindowEvery > 0).
	Windows []Window
}

// Window is one time bucket of the latency series.
type Window struct {
	Start time.Duration // window start, relative to the run start
	Count uint64
	Sum   time.Duration
}

// Mean returns the window's average latency (0 when empty).
func (w Window) Mean() time.Duration {
	if w.Count == 0 {
		return 0
	}
	return w.Sum / time.Duration(w.Count)
}

// MeanLatency is shorthand for Result.Latency.Mean().
func (r *Result) MeanLatency() time.Duration { return r.Latency.Mean() }

func (r *Result) String() string {
	return fmt.Sprintf("offered=%.0f/s achieved=%.0f/s mean=%v p99=%v n=%d",
		r.OfferedRate, r.AchievedRate, r.Latency.Mean(), r.Latency.Quantile(0.99), r.Latency.Count())
}

type pending struct {
	scheduledAt sim.Time
	kind        int
	// batch is the syscall-batch buffer (SyscallBatch > 1) whose send(2)
	// carried this request, on the batch's last request only. Its reply
	// means the server has read every byte of the batch, and tcpsim keeps no
	// reference to a Send's bytes once they are read, so the buffer is free
	// again then.
	batch []byte
}

// Generator drives one connection. Construct with New, then Run.
type Generator struct {
	sim  *sim.Sim
	conn *tcpsim.Conn
	cfg  Config
	mk   RequestMaker

	// Hints, when non-nil, receives Create/Complete calls per request —
	// the cooperative-application path of §3.3.
	Hints *hints.Tracker

	parser   resp.Parser
	inflight sim.FIFO[pending]
	// sendQ holds the wire bytes of sends whose app-CPU cost is being paid,
	// oldest first: the CPU is FIFO, so each evSend takes the front one.
	sendQ    sim.FIFO[[]byte]
	busy     bool
	stopped  bool
	start    sim.Time
	issueEnd sim.Time
	nextAt   sim.Time // open loop: the next scheduled arrival

	sendBuf      []byte // userspace aggregation buffer (SyscallBatch > 1)
	sendBuffered int
	batchFree    [][]byte // batch buffers whose last request is answered

	res Result
}

// New returns a generator issuing requests built by mk over conn.
func New(s *sim.Sim, conn *tcpsim.Conn, cfg Config, mk RequestMaker) *Generator {
	if (cfg.Rate <= 0 && cfg.Concurrency <= 0) || cfg.Duration <= 0 {
		panic("loadgen: need a positive rate or concurrency, and a positive duration")
	}
	if mk == nil {
		panic("loadgen: nil RequestMaker")
	}
	g := &Generator{sim: s, conn: conn, cfg: cfg, mk: mk}
	g.res.OfferedRate = cfg.Rate
	g.res.ByKind = make(map[int]*metrics.Histogram)
	conn.OnReadable(g.wake)
	return g
}

// Run schedules the arrival process, runs the simulation through issue and
// drain, and returns the results. It must be called once. To run several
// generators on one simulator (multiple connections), use Start, drive the
// simulator yourself, and call Finalize on each.
func (g *Generator) Run() *Result {
	end := g.Start()
	drain := g.cfg.Drain
	if drain <= 0 {
		drain = 100 * time.Millisecond
	}
	g.sim.RunUntil(end)
	g.flushSends() // release any partial userspace batch
	deadline := g.sim.Now().Add(drain)
	for g.sim.Now() < deadline && g.inflight.Len() > 0 {
		if !g.sim.Step() {
			break
		}
	}
	return g.Finalize()
}

// Start schedules the arrival process and returns the virtual time at which
// issuing stops. The caller must then run the simulator at least to that
// time (plus drain), call FlushSends once issuing is over, and Finalize.
func (g *Generator) Start() sim.Time {
	start := g.sim.Now()
	g.start = start
	end := start.Add(g.cfg.Duration)
	g.issueEnd = end

	if g.cfg.Concurrency > 0 {
		// Closed loop: prime the window; replacements are issued as
		// responses complete (see wake).
		for i := 0; i < g.cfg.Concurrency; i++ {
			g.issueOne(start)
		}
		return end
	}

	g.nextAt = start.Add(g.gap())
	if g.nextAt <= end {
		g.sim.Post(g.nextAt, g, evIssue, nil)
	}
	return end
}

// gap draws the next open-loop inter-arrival time.
func (g *Generator) gap() time.Duration {
	rate := g.cfg.Rate
	if g.cfg.RateFn != nil {
		rate *= max(g.cfg.RateFn(g.sim.Now().Sub(g.start)), 1e-3)
	}
	mean := float64(time.Second) / rate
	if g.cfg.Arrival == Poisson {
		return time.Duration(g.sim.Rand().ExpFloat64() * mean)
	}
	return time.Duration(mean)
}

// The generator's events; HandleEvent dispatches them.
const (
	evIssue    = iota // open loop: a request arrives
	evSend            // a send's app-CPU cost is paid: write sendQ's front to the socket
	evRead            // a wakeup's cost is paid: read and complete responses
	evProcDone        // the responses' processing cost is paid: ready for the next wakeup
)

// HandleEvent runs one of the generator's scheduled events (sim.Handler).
func (g *Generator) HandleEvent(kind int, _ any) {
	switch kind {
	case evIssue:
		g.issueOne(g.sim.Now())
		g.nextAt = g.nextAt.Add(g.gap())
		if g.nextAt < g.sim.Now() {
			// The gap rounded to < 1ns event resolution; keep the
			// offered process moving.
			g.nextAt = g.sim.Now() + 1
		}
		if g.nextAt <= g.issueEnd {
			g.sim.Post(g.nextAt, g, evIssue, nil)
		}
	case evSend:
		g.conn.Send(g.sendQ.Pop())
	case evRead:
		g.readResponses()
	case evProcDone:
		g.busy = false
		if g.conn.Readable() > 0 {
			g.wake()
		}
	}
}

// FlushSends releases any partial userspace syscall batch; call it after
// issuing has ended when driving the simulator manually.
func (g *Generator) FlushSends() { g.flushSends() }

// Outstanding returns requests issued but not yet answered.
func (g *Generator) Outstanding() int { return g.inflight.Len() }

// Finalize stops measurement and computes the result. Responses arriving
// afterwards are ignored.
func (g *Generator) Finalize() *Result {
	g.stopped = true
	g.res.Dropped = uint64(g.inflight.Len())
	meas := g.cfg.Duration - g.cfg.Warmup
	if meas > 0 {
		g.res.AchievedRate = float64(g.res.Latency.Count()) / meas.Seconds()
	}
	return &g.res
}

// issueOne charges the client send cost and writes request i to the socket.
// The latency clock starts at the scheduled arrival (now). With syscall
// batching, the request instead waits in a userspace buffer until its batch
// fills.
func (g *Generator) issueOne(scheduled sim.Time) {
	i := g.res.Issued
	g.res.Issued++
	wire, kind := g.mk(i)
	g.inflight.Push(pending{scheduledAt: scheduled, kind: kind})
	if g.Hints != nil {
		g.Hints.Create(1)
	}
	if g.cfg.SyscallBatch > 1 {
		if g.sendBuf == nil { // a recycled buffer, or one sized for a full batch
			if k := len(g.batchFree) - 1; k >= 0 {
				g.sendBuf, g.batchFree = g.batchFree[k], g.batchFree[:k]
			} else {
				g.sendBuf = make([]byte, 0, g.cfg.SyscallBatch*len(wire))
			}
		}
		g.sendBuf = append(g.sendBuf, wire...)
		g.sendBuffered++
		if g.sendBuffered >= g.cfg.SyscallBatch {
			g.flushSends()
		}
		return
	}
	g.send(g.cfg.SendCosts.Item(len(wire)), wire)
}

// send charges cost on the app CPU, then writes wire to the socket.
func (g *Generator) send(cost time.Duration, wire []byte) {
	g.sendQ.Push(wire)
	g.conn.Stack().AppCPU.Exec(cost, g, evSend, nil)
}

// flushSends issues the buffered requests as one send(2). The buffer rides
// on the batch's last pending request until its reply is parsed.
func (g *Generator) flushSends() {
	if g.sendBuffered == 0 {
		return
	}
	wire := g.sendBuf
	n := g.sendBuffered
	g.sendBuf = nil
	g.sendBuffered = 0
	live := g.inflight.Live()
	live[len(live)-1].batch = wire
	g.send(g.cfg.SendCosts.Batch(n, len(wire)), wire)
}

// wake is the client's readable event: charge β, read, parse, complete
// responses FIFO, then charge per-response processing (c).
func (g *Generator) wake() {
	if g.busy || g.stopped {
		return
	}
	g.busy = true
	g.conn.Stack().AppCPU.Exec(g.cfg.ReadCosts.PerBatch, g, evRead, nil)
}

// readResponses is the body of a wakeup; evProcDone ends it. The socket
// drains straight into the parser's buffer.
func (g *Generator) readResponses() {
	if n := g.conn.Readable(); n > 0 {
		g.parser.Commit(g.conn.ReadInto(g.parser.Space(n)))
	}
	now := g.sim.Now()
	var procCost time.Duration
	for {
		respBytes, ok, err := g.parser.Skip()
		if err != nil {
			panic(fmt.Sprintf("loadgen: corrupt response stream: %v", err))
		}
		if !ok {
			break
		}
		if g.inflight.Len() == 0 {
			panic("loadgen: response without a pending request")
		}
		p := g.inflight.Pop()
		if p.batch != nil {
			g.batchFree = append(g.batchFree, p.batch[:0])
		}
		g.res.Completed++
		if g.Hints != nil {
			g.Hints.Complete(1)
		}
		if g.cfg.OnComplete != nil {
			g.cfg.OnComplete(g.res.Completed-1, int64(p.scheduledAt), int64(now))
		}
		lat := now.Sub(p.scheduledAt)
		if g.cfg.WindowEvery > 0 {
			idx := int(now.Sub(g.start) / g.cfg.WindowEvery)
			for len(g.res.Windows) <= idx {
				g.res.Windows = append(g.res.Windows, Window{
					Start: time.Duration(len(g.res.Windows)) * g.cfg.WindowEvery,
				})
			}
			g.res.Windows[idx].Count++
			g.res.Windows[idx].Sum += lat
		}
		if p.scheduledAt.Sub(g.start) >= g.cfg.Warmup && !g.stopped {
			g.res.Latency.Record(lat)
			h := g.res.ByKind[p.kind]
			if h == nil {
				h = &metrics.Histogram{}
				g.res.ByKind[p.kind] = h
			}
			h.Record(lat)
		}
		procCost += g.cfg.PerResponse + time.Duration(float64(respBytes)*g.cfg.PerRespByteNS)

		// Closed loop: replace the completed request while the
		// issuing window is open.
		if g.cfg.Concurrency > 0 && !g.stopped && now < g.issueEnd {
			g.issueOne(now)
		}
	}
	g.conn.Stack().AppCPU.Exec(procCost, g, evProcDone, nil)
}
