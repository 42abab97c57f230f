package figures

import (
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/faults"
	"e2ebatch/internal/hints"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
	"e2ebatch/internal/trace"
)

// DynamicSpec enables estimate-driven on/off toggling during the run
// (the policy the paper argues for, §4-§5).
type DynamicSpec struct {
	Interval  time.Duration // decision tick (≈ a kernel tick, §5)
	Objective policy.Objective
	Toggler   policy.TogglerConfig
	Initial   policy.Mode
	// UseUCB selects the UCB1 bandit controller instead of ε-greedy.
	UseUCB bool
	// MaxRemoteAge bounds the age of the peer's metadata before the
	// estimator degrades to the local-only view (engine.Config). Zero
	// disables the staleness check.
	MaxRemoteAge time.Duration
	// TailQuantile, when nonzero, drives the controller with the composed
	// tail estimate's quantile instead of the mean (engine.Config) — the
	// "p99 ≤ D_max" policy. It also upgrades the metadata exchange to v2
	// frames so the tails exist to compose.
	TailQuantile float64
	// TailsV1Peer, with TailQuantile set, keeps the exchange at v1 (bare
	// counters, no histograms): the chaos scenario where the policy demands
	// a tail the wire never delivers, so every tick abstains and the
	// controller must retreat to its safe mode.
	TailsV1Peer bool
	// Audit, when non-nil, attaches an online estimator audit to the
	// dynamic endpoint (engine.Config.Audit): drifting audits route ticks
	// degraded. Like RunSpec.Observer it is an engine-defined interface,
	// so this package stays free of the observability plane and a nil
	// audit leaves runs byte-identical.
	Audit engine.AuditSource
}

// DefaultDynamicSpec returns the toggling setup used by the experiments: a
// 1 ms tick with the paper's throughput-under-SLO objective. The 5 ms
// staleness bound tolerates a few missed exchange opportunities at the tick
// rate before the estimator declares the peer's view stale.
func DefaultDynamicSpec(slo time.Duration) *DynamicSpec {
	return &DynamicSpec{
		Interval:     time.Millisecond,
		Objective:    policy.ThroughputUnderSLO{SLO: slo},
		Toggler:      policy.DefaultTogglerConfig(),
		Initial:      policy.BatchOff,
		MaxRemoteAge: 5 * time.Millisecond,
	}
}

// AIMDSpec enables AIMD control of the sender cork threshold (§5 "Better
// Batching Heuristics").
type AIMDSpec struct {
	Interval       time.Duration
	Min, Max, Step int
	Backoff        float64
	SLO            time.Duration
}

// DefaultAIMDSpec returns the AIMD setup used by the experiments.
func DefaultAIMDSpec(slo time.Duration) *AIMDSpec {
	return &AIMDSpec{
		Interval: time.Millisecond,
		Min:      1448,
		Max:      64 << 10,
		Step:     8 << 10,
		Backoff:  0.9,
		SLO:      slo,
	}
}

// RunSpec describes one experiment run.
type RunSpec struct {
	Calib Calib
	Seed  int64

	Rate     float64
	Duration time.Duration
	// RateFn modulates the offered rate over virtual time (the workload
	// zoo's bursty/diurnal arrival processes); nil keeps Rate constant.
	RateFn func(elapsed time.Duration) float64

	// BatchOn selects static batching mode (ignored when Dynamic or
	// AIMD is set).
	BatchOn bool
	Dynamic *DynamicSpec
	AIMD    *AIMDSpec

	// Workload overrides the default SET workload.
	Workload loadgen.RequestMaker
	// PreloadKeys populates the store so GETs hit (Figure 4b).
	PreloadKeys bool

	// ClientScale multiplies client-side costs (Figure 2's VM client).
	ClientScale float64

	// WithHints attaches a create/complete tracker (§3.3).
	WithHints bool
	// SyscallBatch > 1 makes the client batch requests per send(2).
	SyscallBatch int

	// LossProb injects packet loss on the link (with RTO recovery).
	LossProb float64
	// ExchangeInterval overrides the metadata-exchange rate limit
	// (zero keeps the calibration default: state on every segment).
	ExchangeInterval time.Duration
	// OnlineEstimateEvery, when positive, samples the online (wire-
	// exchange-fed) estimator at this period without driving any
	// policy, accumulating OnlineAvg/OnlineCount — used by the §5
	// exchange-frequency ablation.
	OnlineEstimateEvery time.Duration

	// TailCapture enables v2 (histogram-carrying) exchanges and captures
	// the cumulative per-queue delay histograms of both endpoints at warmup
	// and at the end of the run, composing them offline into RunOut.TailEst
	// — the tail analogue of the steady-state mean estimate in Est.
	TailCapture bool

	// Faults schedules a fault-injection plan against the run (package
	// faults). Loss windows force an RTO, exactly as LossProb does.
	Faults *faults.Plan

	// Observer, when non-nil, receives every dynamic-endpoint tick with
	// the raw samples attached (engine.Config.Observer) — the telemetry
	// seam. Nil keeps golden runs allocation- and byte-identical.
	Observer engine.Observer
	// OnComplete, when non-nil, observes every completed request
	// (loadgen.Config.OnComplete): the per-request seam span tracing and
	// the sim-vs-span digest tests consume. Timestamps are virtual-time
	// nanoseconds; reqID is the FIFO completion index.
	OnComplete func(reqID uint64, scheduledNs, completedNs int64)
}

// RunOut collects everything a figure needs from one run.
type RunOut struct {
	Res *loadgen.Result
	Log *trace.Log

	// Est holds the steady-state offline estimate per unit mode.
	Est [tcpsim.NumUnits]core.Estimate
	// TailEst is the composed end-to-end tail estimate over the same
	// steady-state window, byte units (valid only for TailCapture runs).
	TailEst core.TailEstimate
	// HintAvgs is the hint-tracker estimate over the same post-warmup
	// window (valid when WithHints).
	HintAvgs qstate.Avgs

	ClientAppUtil, ClientSoftUtil float64
	ServerAppUtil, ServerSoftUtil float64

	ServerStats            tcpsim.SimServerStats
	ClientConn, ServerConn tcpsim.Stats
	TogglerStats           policy.TogglerStats
	FinalMode              policy.Mode
	// OnShare is the fraction of decision ticks spent in batch-on mode
	// (Dynamic runs).
	OnShare         float64
	FinalCork       int
	OnlineEstimates int // valid per-tick online estimates (Dynamic)

	// OnlineAvg is the mean of valid per-tick online latency estimates
	// and OnlineCount their number (OnlineEstimateEvery runs).
	OnlineAvg   time.Duration
	OnlineCount int

	// DegradedTicks counts Dynamic decision ticks whose estimate ran
	// without usable peer metadata; TotalTicks is all decision ticks.
	DegradedTicks int
	TotalTicks    int
	// TailAbstainedTicks counts the DegradedTicks subset where a
	// tail-targeting policy met a valid mean but no composed tail.
	TailAbstainedTicks int
	// AuditDriftTicks counts the DegradedTicks subset caused by a drifting
	// estimator audit (DynamicSpec.Audit).
	AuditDriftTicks int

	// conns holds each connection's steady byte-unit estimate on the
	// multi-connection figure's runs.
	conns []core.Estimate
}

// testbed is what a simulated run stands on: the simulator, both hosts at
// spec's client scale, the link at spec's loss, the TCP config of spec's
// batching mode, the server's store and the load generator's config at
// spec's offered load.
type testbed struct {
	s      *sim.Sim
	cs, ss *tcpsim.Stack
	link   *netem.Link
	tcp    tcpsim.Config
	store  *kv.Store
	load   loadgen.Config
}

func newTestbed(spec RunSpec) *testbed {
	cal := spec.Calib
	s := sim.New(spec.Seed + 1)
	tb := &testbed{s: s, tcp: cal.TCP, load: cal.Load}

	tb.cs = tcpsim.NewStack(s, "client")
	tb.cs.TxCosts, tb.cs.RxCosts = cal.ClientTx, cal.ClientRx
	tb.ss = tcpsim.NewStack(s, "server")
	tb.ss.TxCosts, tb.ss.RxCosts = cal.ServerTx, cal.ServerRx

	if scale := spec.ClientScale; scale > 0 && scale != 1 {
		tb.cs.TxCosts = tb.cs.TxCosts.Scale(scale)
		tb.cs.RxCosts = tb.cs.RxCosts.Scale(scale)
		tb.load.SendCosts = tb.load.SendCosts.Scale(scale)
		tb.load.ReadCosts = tb.load.ReadCosts.Scale(scale)
		tb.load.PerResponse = time.Duration(float64(tb.load.PerResponse) * scale)
		tb.load.PerRespByteNS *= scale
	}

	linkCfg := cal.Link
	if spec.LossProb > 0 {
		linkCfg.LossProb = spec.LossProb
	}
	tb.link = netem.NewLink(s, "wire", linkCfg)
	if (spec.LossProb > 0 || spec.Faults.NeedsRTO()) && tb.tcp.RTO == 0 {
		tb.tcp.RTO = 5 * time.Millisecond
	}
	tb.tcp.Nagle = spec.BatchOn && spec.Dynamic == nil && spec.AIMD == nil
	if tb.tcp.Nagle {
		tb.tcp.CorkBytes = cal.CorkOnBytes
	}
	if spec.AIMD != nil {
		tb.tcp.Nagle = true
		tb.tcp.CorkBytes = spec.AIMD.Min
	}
	if spec.Dynamic != nil {
		tb.tcp.Nagle = spec.Dynamic.Initial == policy.BatchOn
		tb.tcp.CorkBytes = cal.CorkOnBytes
	}
	if spec.ExchangeInterval > 0 {
		tb.tcp.ExchangeInterval = spec.ExchangeInterval
	}
	if spec.TailCapture || (spec.Dynamic != nil && spec.Dynamic.TailQuantile > 0 && !spec.Dynamic.TailsV1Peer) {
		tb.tcp.ExchangeTails = true
	}

	tb.store = kv.NewStore(func() time.Duration { return s.Now().Duration() })
	tb.load.Rate = spec.Rate
	tb.load.RateFn = spec.RateFn
	tb.load.Duration = spec.Duration
	tb.load.Warmup = spec.Duration / 5
	tb.load.Drain = 50 * time.Millisecond
	tb.load.SyscallBatch = spec.SyscallBatch
	tb.load.OnComplete = spec.OnComplete
	return tb
}

// Run executes one experiment run and returns its outputs.
func Run(spec RunSpec) *RunOut {
	cal := spec.Calib
	tb := newTestbed(spec)
	s, cs, ss, lcfg := tb.s, tb.cs, tb.ss, tb.load
	cc, sc := tcpsim.Connect(cs, ss, tb.link, tb.tcp)
	if spec.PreloadKeys {
		for _, k := range loadgen.Keys(cal.KeySize, 16) {
			// One buffer per key: the store owns and overwrites them.
			tb.store.Set(string(k), make([]byte, cal.ValSize), 0)
		}
	}
	srv := tcpsim.NewSimServer(kv.NewEngine(tb.store), sc, cal.Server)
	wl := spec.Workload
	if wl == nil {
		wl = loadgen.SetWorkload(cal.KeySize, cal.ValSize)
	}
	gen := loadgen.New(s, cc, lcfg, wl)

	out := &RunOut{}

	if spec.WithHints {
		gen.Hints = hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	}

	col := trace.NewCollector(s, cc, sc, time.Millisecond)

	// All three control variants below are the shared engine loop over the
	// same connection pair; this function only translates the spec into an
	// engine.Config and maps the accounting back out.
	var endpoints []*engine.Endpoint

	// Estimate-driven dynamic toggling: one engine tick applies the chosen
	// mode to both endpoints, exactly what a kernel running the paper's
	// policy on each side would do.
	var tog *policy.Toggler
	var dynEp *engine.Endpoint
	if spec.Dynamic != nil {
		d := spec.Dynamic
		if d.UseUCB {
			tog = policy.NewUCBToggler(d.Objective, d.Initial)
		} else {
			tog = policy.NewToggler(d.Objective, d.Toggler, d.Initial, s.Rand())
		}
		dynEp = engine.New(engine.Config{
			Controller:   tog,
			Initial:      d.Initial,
			CorkOnBytes:  cal.CorkOnBytes,
			MaxRemoteAge: d.MaxRemoteAge,
			TailQuantile: d.TailQuantile,
			Observer:     spec.Observer,
			Audit:        d.Audit,
		}, tcpsim.NewEnginePort(cc, sc))
		sim.NewTicker(s, d.Interval, func(now sim.Time) { dynEp.Tick(qstate.Time(now)) })
		endpoints = append(endpoints, dynEp)
	}

	if spec.OnlineEstimateEvery > 0 {
		// A passive endpoint: estimates accumulate, no policy drives.
		onEp := engine.New(engine.Config{
			Observer: &onlineMean{out: out, warm: qstate.Time(spec.Duration / 5)},
		}, tcpsim.NewEnginePort(cc, sc))
		sim.NewTicker(s, spec.OnlineEstimateEvery, func(now sim.Time) { onEp.Tick(qstate.Time(now)) })
	}

	var aimd *engine.AIMDPolicy
	if spec.AIMD != nil {
		a := spec.AIMD
		aimd = &engine.AIMDPolicy{Min: a.Min, Max: a.Max, Step: a.Step, Backoff: a.Backoff, SLO: a.SLO}
		aimdEp := engine.New(engine.Config{AIMD: aimd}, tcpsim.NewEnginePort(cc, sc))
		sim.NewTicker(s, a.Interval, func(now sim.Time) { aimdEp.Tick(qstate.Time(now)) })
		endpoints = append(endpoints, aimdEp)
	}

	// Tail capture: snapshot both endpoints' cumulative delay histograms at
	// warmup; the end-of-run pair is read after the generator returns. The
	// composition happens offline (steadyTail), mirroring steadyEstimate.
	// The hint tracker's warmup snapshot rides the same read-only event.
	var tailFirst [2]qstate.WireTails
	var tailCaptured bool
	var hintFirst qstate.Snapshot
	if spec.TailCapture || gen.Hints != nil {
		s.At(sim.Time(lcfg.Warmup), func() {
			if spec.TailCapture {
				tailFirst[0] = cc.LocalTails()
				tailFirst[1] = sc.LocalTails()
				tailCaptured = true
			}
			if gen.Hints != nil {
				hintFirst = gen.Hints.Snapshot()
			}
		})
	}

	if spec.Faults != nil {
		// Plans are validated up front; a bad plan is a spec bug, like an
		// out-of-range netem config.
		faults.MustApply(s, spec.Faults, faults.Targets{
			Link:    tb.link,
			Client:  cc,
			Staller: srv,
			// A reset invalidates the counter history on both sides of
			// the exchange: re-prime the estimators rather than let them
			// difference across the discontinuity.
			OnReset: func() {
				for _, ep := range endpoints {
					ep.Reset()
				}
			},
		})
	}

	out.Res = gen.Run()
	col.Stop()
	out.Log = col.Log()
	for u := 0; u < tcpsim.NumUnits; u++ {
		out.Est[u] = steadyEstimate(out.Log, tcpsim.Unit(u), spec.Duration/5)
	}
	if tailCaptured {
		lastC := cc.LocalTails()
		lastS := sc.LocalTails()
		out.TailEst = steadyTail(out.Log, spec.Duration/5, &tailFirst[0], &lastC, &tailFirst[1], &lastS)
	}
	if gen.Hints != nil {
		out.HintAvgs = qstate.GetAvgs(hintFirst, gen.Hints.Snapshot())
	}

	elapsed := s.Now().Duration()
	out.ClientAppUtil = float64(cs.AppCPU.BusyTime()) / float64(elapsed)
	out.ClientSoftUtil = float64(cs.SoftirqCPU.BusyTime()) / float64(elapsed)
	out.ServerAppUtil = float64(ss.AppCPU.BusyTime()) / float64(elapsed)
	out.ServerSoftUtil = float64(ss.SoftirqCPU.BusyTime()) / float64(elapsed)

	out.ServerStats = srv.Stats()
	out.ClientConn = cc.Stats()
	out.ServerConn = sc.Stats()
	if tog != nil {
		st := dynEp.Stats()
		out.TotalTicks = st.TotalTicks
		out.DegradedTicks = st.DegradedTicks
		out.TailAbstainedTicks = st.TailAbstainedTicks
		out.AuditDriftTicks = st.AuditDriftTicks
		out.OnlineEstimates = st.ValidEstimates
		out.TogglerStats = tog.Stats()
		out.FinalMode = tog.Mode()
		if st.TotalTicks > 0 {
			out.OnShare = float64(st.OnTicks) / float64(st.TotalTicks)
		}
	}
	if aimd != nil {
		out.FinalCork = aimd.Limit()
	}
	return out
}

// onlineMean observes the passive OnlineEstimateEvery endpoint: the running
// mean of the valid per-tick estimates from warmup on.
type onlineMean struct {
	out  *RunOut
	warm qstate.Time
	sum  time.Duration
}

func (o *onlineMean) ObserveTick(now qstate.Time, r engine.TickResult) {
	if r.Estimate.Valid && now >= o.warm {
		o.sum += r.Estimate.Latency
		o.out.OnlineCount++
		o.out.OnlineAvg = o.sum / time.Duration(o.out.OnlineCount)
	}
}

// steadyEstimate analyzes the log from after warmup to the end as one
// interval, mirroring the paper's offline steady-state analysis.
func steadyEstimate(l *trace.Log, unit tcpsim.Unit, warmup time.Duration) core.Estimate {
	local, remote, ok := l.Delays(warmup, unit)
	if !ok {
		return core.Estimate{}
	}
	return core.EstimateE2E(local, remote)
}

// steadyTail composes the offline end-to-end tail estimate over the
// post-warmup window: per-queue interval distributions come from the
// cumulative histograms captured at warmup and at the end, and the
// ack-delay mean shifts from the same trace window steadyEstimate uses.
func steadyTail(l *trace.Log, warmup time.Duration, firstC, lastC, firstS, lastS *qstate.WireTails) core.TailEstimate {
	lt, lok := core.TailDistsBetween(firstC, lastC)
	rt, rok := core.TailDistsBetween(firstS, lastS)
	local, remote, ok := l.Delays(warmup, tcpsim.UnitBytes)
	if !lok || !rok || !ok {
		return core.TailEstimate{}
	}
	return core.ComposeTail(&lt, &rt, local, remote)
}
