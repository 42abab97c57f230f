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
	Unit      tcpsim.Unit
	Initial   policy.Mode
	// UseUCB selects the UCB1 bandit controller instead of ε-greedy.
	UseUCB bool
	// MaxRemoteAge bounds the age of the peer's metadata before the
	// estimator degrades to the local-only view (core.Estimator). Zero
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
		Unit:         tcpsim.UnitBytes,
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

	// TraceInterval is the ethtool-style sampling period (default 1 ms).
	TraceInterval time.Duration
	// WithHints attaches a create/complete tracker (§3.3).
	WithHints bool
	// SyscallBatch > 1 makes the client batch requests per send(2).
	SyscallBatch int

	// GRO enables receive-side coalescing on both hosts.
	GRO bool
	// LossProb injects packet loss on the link (with RTO recovery).
	LossProb float64
	// WindowEvery enables the latency-over-time series in the result.
	WindowEvery time.Duration
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
	// HintAvgs is the hint-tracker estimate (valid when WithHints).
	HintAvgs qstate.Avgs

	ClientAppUtil, ClientSoftUtil float64
	ServerAppUtil, ServerSoftUtil float64

	ServerStats            kv.SimServerStats
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
}

// Run executes one experiment run and returns its outputs.
func Run(spec RunSpec) *RunOut {
	cal := spec.Calib
	s := sim.New(spec.Seed + 1)

	cs := tcpsim.NewStack(s, "client")
	cs.TxCosts, cs.RxCosts = cal.ClientTx, cal.ClientRx
	ss := tcpsim.NewStack(s, "server")
	ss.TxCosts, ss.RxCosts = cal.ServerTx, cal.ServerRx

	scale := spec.ClientScale
	if scale <= 0 {
		scale = 1
	}
	if scale != 1 {
		cs.TxCosts = cs.TxCosts.Scale(scale)
		cs.RxCosts = cs.RxCosts.Scale(scale)
	}

	linkCfg := cal.Link
	if spec.LossProb > 0 {
		linkCfg.LossProb = spec.LossProb
	}
	link := netem.NewLink(s, "wire", linkCfg)
	tcpCfg := cal.TCP
	if (spec.LossProb > 0 || spec.Faults.NeedsRTO()) && tcpCfg.RTO == 0 {
		tcpCfg.RTO = 5 * time.Millisecond
	}
	tcpCfg.Nagle = spec.BatchOn && spec.Dynamic == nil && spec.AIMD == nil
	if tcpCfg.Nagle {
		tcpCfg.CorkBytes = cal.CorkOnBytes
	}
	if spec.AIMD != nil {
		tcpCfg.Nagle = true
		tcpCfg.CorkBytes = spec.AIMD.Min
	}
	if spec.Dynamic != nil {
		tcpCfg.Nagle = spec.Dynamic.Initial == policy.BatchOn
		tcpCfg.CorkBytes = cal.CorkOnBytes
	}
	if spec.ExchangeInterval > 0 {
		tcpCfg.ExchangeInterval = spec.ExchangeInterval
	}
	if spec.TailCapture || (spec.Dynamic != nil && spec.Dynamic.TailQuantile > 0 && !spec.Dynamic.TailsV1Peer) {
		tcpCfg.ExchangeTails = true
	}
	tcpCfg.GRO = spec.GRO
	cc, sc := tcpsim.Connect(cs, ss, link, tcpCfg)

	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	if spec.PreloadKeys {
		for _, k := range loadgen.Keys(cal.KeySize, 16) {
			// One buffer per key: the store owns and overwrites them.
			store.Set(string(k), make([]byte, cal.ValSize), 0)
		}
	}
	srv := kv.NewSimServer(kv.NewEngine(store), sc, cal.Server)

	lcfg := cal.Load
	lcfg.Rate = spec.Rate
	lcfg.RateFn = spec.RateFn
	lcfg.Duration = spec.Duration
	lcfg.Warmup = spec.Duration / 5
	lcfg.Drain = 50 * time.Millisecond
	lcfg.SyscallBatch = spec.SyscallBatch
	lcfg.WindowEvery = spec.WindowEvery
	lcfg.OnComplete = spec.OnComplete
	if scale != 1 {
		lcfg.SendCosts = lcfg.SendCosts.Scale(scale)
		lcfg.ReadCosts = lcfg.ReadCosts.Scale(scale)
		lcfg.PerResponse = time.Duration(float64(lcfg.PerResponse) * scale)
		lcfg.PerRespByteNS *= scale
	}
	wl := spec.Workload
	if wl == nil {
		wl = loadgen.SetWorkload(cal.KeySize, cal.ValSize)
	}
	gen := loadgen.New(s, cc, lcfg, wl)

	out := &RunOut{}

	if spec.WithHints {
		gen.Hints = hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	}

	ti := spec.TraceInterval
	if ti <= 0 {
		ti = time.Millisecond
	}
	col := trace.NewCollector(s, cc, sc, ti)

	// All three control variants below are the shared engine loop over the
	// same connection pair; this function only translates the spec into an
	// engine.Config and maps the accounting back out.
	clock := engine.SimClock{Sim: s}
	var endpoints []*engine.Endpoint

	// Estimate-driven dynamic toggling: one engine tick applies the chosen
	// mode to both endpoints, exactly what a kernel running the paper's
	// policy on each side would do.
	var tog engine.Controller
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
		}, tcpsim.NewEnginePort(cc, sc, d.Unit))
		dynEp.Start(clock, d.Interval)
		endpoints = append(endpoints, dynEp)
	}

	if spec.OnlineEstimateEvery > 0 {
		// A passive endpoint: estimates accumulate, no policy drives.
		var sum time.Duration
		warm := spec.Duration / 5
		onEp := engine.New(engine.Config{
			OnTick: func(now qstate.Time, r engine.TickResult) {
				if r.Estimate.Valid && time.Duration(now) >= warm {
					sum += r.Estimate.Latency
					out.OnlineCount++
					out.OnlineAvg = sum / time.Duration(out.OnlineCount)
				}
			},
		}, tcpsim.NewEnginePort(cc, sc, tcpsim.UnitBytes))
		onEp.Start(clock, spec.OnlineEstimateEvery)
	}

	var aimd *policy.AIMD
	if spec.AIMD != nil {
		a := spec.AIMD
		aimd = policy.NewAIMD(a.Min, a.Max, a.Step, a.Backoff)
		aimdEp := engine.New(engine.Config{
			AIMD: &engine.AIMDPolicy{Ctl: aimd, SLO: a.SLO},
		}, tcpsim.NewEnginePort(cc, sc, tcpsim.UnitBytes))
		aimdEp.Start(clock, a.Interval)
		endpoints = append(endpoints, aimdEp)
	}

	// Tail capture: snapshot both endpoints' cumulative delay histograms at
	// warmup; the end-of-run pair is read after the generator returns. The
	// composition happens offline (steadyTail), mirroring steadyEstimate.
	var tailFirst [2]qstate.WireTails
	var tailCaptured bool
	if spec.TailCapture {
		s.At(sim.Time(lcfg.Warmup), func() {
			tailFirst[0] = cc.LocalTails(tcpsim.UnitBytes)
			tailFirst[1] = sc.LocalTails(tcpsim.UnitBytes)
			tailCaptured = true
		})
	}

	if spec.Faults != nil {
		// Plans are validated up front; a bad plan is a spec bug, like an
		// out-of-range netem config.
		faults.MustApply(s, spec.Faults, faults.Targets{
			Link:    link,
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
			OnFault: func(kind, detail string) { col.Log().AddEvent(s.Now(), kind, detail) },
		})
	}

	out.Res = gen.Run()
	col.Stop()
	out.Log = col.Log()
	for u := 0; u < tcpsim.NumUnits; u++ {
		out.Est[u] = steadyEstimate(out.Log, tcpsim.Unit(u), spec.Duration/5)
	}
	if tailCaptured {
		lastC := cc.LocalTails(tcpsim.UnitBytes)
		lastS := sc.LocalTails(tcpsim.UnitBytes)
		out.TailEst = steadyTail(out.Log, spec.Duration/5, &tailFirst[0], &lastC, &tailFirst[1], &lastS)
	}
	if gen.Hints != nil {
		out.HintAvgs = hintOverall(gen.Hints)
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

// steadyEstimate analyzes the log from after warmup to the end as one
// interval, mirroring the paper's offline steady-state analysis.
func steadyEstimate(l *trace.Log, unit tcpsim.Unit, warmup time.Duration) core.Estimate {
	recs := l.Records
	if len(recs) < 2 {
		return core.Estimate{}
	}
	i := 0
	for i < len(recs)-1 && recs[i].At.Duration() < warmup {
		i++
	}
	first, last := recs[i], recs[len(recs)-1]
	var local, remote core.Delays
	local = core.DelaysBetween(first.Client[unit], last.Client[unit])
	remote = core.DelaysBetween(first.Server[unit], last.Server[unit])
	return core.EstimateE2E(local, remote)
}

// steadyTail composes the offline end-to-end tail estimate over the
// post-warmup window: per-queue interval distributions come from the
// cumulative histograms captured at warmup and at the end, and the
// ack-delay mean shifts from the same trace window steadyEstimate uses.
func steadyTail(l *trace.Log, warmup time.Duration, firstC, lastC, firstS, lastS *qstate.WireTails) core.TailEstimate {
	lt, lok := core.TailDistsBetween(firstC, lastC)
	rt, rok := core.TailDistsBetween(firstS, lastS)
	if !lok || !rok {
		return core.TailEstimate{}
	}
	recs := l.Records
	if len(recs) < 2 {
		return core.TailEstimate{}
	}
	i := 0
	for i < len(recs)-1 && recs[i].At.Duration() < warmup {
		i++
	}
	first, last := recs[i], recs[len(recs)-1]
	local := core.DelaysBetween(first.Client[tcpsim.UnitBytes], last.Client[tcpsim.UnitBytes])
	remote := core.DelaysBetween(first.Server[tcpsim.UnitBytes], last.Server[tcpsim.UnitBytes])
	return core.ComposeTail(&lt, &rt, local, remote)
}

// hintOverall reads the tracker's full-run averages.
func hintOverall(tr *hints.Tracker) qstate.Avgs {
	snap := tr.Snapshot()
	return qstate.GetAvgs(qstate.Snapshot{}, snap)
}
