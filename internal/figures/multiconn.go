package figures

import (
	"fmt"
	"io"
	"time"

	"e2ebatch/internal/core"
	eng "e2ebatch/internal/engine"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// MultiConnOut is the multi-connection experiment of §3.2's closing remark:
// per-connection estimates are aggregated (throughput-weighted) when one
// batching decision covers several connections, and the toggling policy is
// driven by the aggregate.
type MultiConnOut struct {
	Conns    int
	Rate     float64 // total offered load
	Measured time.Duration
	// PerConn holds each connection's own steady estimate; Aggregate is
	// their throughput-weighted combination.
	PerConn   []core.Estimate
	Aggregate core.Estimate
	// Dynamic results when toggling from the aggregate.
	DynamicMeasured time.Duration
	OnShare         float64
}

// MultiConn runs n client connections (each with its own load generator at
// rate/n) against one server over one link, first statically (batch off) to
// validate aggregation, then with aggregate-driven dynamic toggling across
// all connections at once.
func MultiConn(cal Calib, n int, rate float64, dur time.Duration, seed int64) *MultiConnOut {
	if n <= 0 {
		panic("figures: MultiConn needs n > 0")
	}
	out := &MultiConnOut{Conns: n, Rate: rate}

	// ---- pass 1: static batch-off, validate aggregation ----
	res, ests, _, _ := runMulti(cal, n, rate, dur, seed, nil)
	out.Measured = res
	out.PerConn = ests
	out.Aggregate = core.Aggregate(ests)

	// ---- pass 2: aggregate-driven dynamic toggling ----
	d := DefaultDynamicSpec(cal.SLO)
	dyn, _, onShare, _ := runMulti(cal, n, rate, dur, seed, d)
	out.DynamicMeasured = dyn
	out.OnShare = onShare
	return out
}

// runMulti wires n connections and returns the pooled measured mean, the
// per-connection steady estimates, and (for dynamic runs) the batch-on
// residency.
func runMulti(cal Calib, n int, rate float64, dur time.Duration, seed int64, dyn *DynamicSpec) (time.Duration, []core.Estimate, float64, uint64) {
	s := sim.New(seed + 1)
	cs := tcpsim.NewStack(s, "client")
	cs.TxCosts, cs.RxCosts = cal.ClientTx, cal.ClientRx
	ss := tcpsim.NewStack(s, "server")
	ss.TxCosts, ss.RxCosts = cal.ServerTx, cal.ServerRx
	link := netem.NewLink(s, "wire", cal.Link)

	tcpCfg := cal.TCP
	tcpCfg.Nagle = false
	if dyn != nil {
		tcpCfg.Nagle = dyn.Initial == policy.BatchOn
		tcpCfg.CorkBytes = cal.CorkOnBytes
	}

	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	engine := kv.NewEngine(store)

	type connSet struct {
		cc  *tcpsim.Conn
		sc  *tcpsim.Conn
		gen *loadgen.Generator
	}
	conns := make([]*connSet, n)
	ports := make([]eng.Port, n)
	lcfg := cal.Load
	lcfg.Rate = rate / float64(n)
	lcfg.Duration = dur
	lcfg.Warmup = dur / 5
	for i := range conns {
		cc, sc := tcpsim.Connect(cs, ss, link, tcpCfg)
		tcpsim.NewSimServer(engine, sc, cal.Server)
		gen := loadgen.New(s, cc, lcfg, loadgen.SetWorkload(cal.KeySize, cal.ValSize))
		conns[i] = &connSet{cc: cc, sc: sc, gen: gen}
		ports[i] = tcpsim.NewEnginePort(cc, sc, tcpsim.UnitBytes)
	}

	// Steady-state per-connection estimation: a passive engine endpoint
	// per connection, primed after warmup, closing sample at the end.
	warmAt := s.Now().Add(lcfg.Warmup)
	probes := make([]*eng.Endpoint, n)
	for i := range probes {
		probes[i] = eng.New(eng.Config{}, ports[i])
	}
	s.At(warmAt, func() {
		for _, p := range probes {
			p.Tick(qstate.Time(s.Now()))
		}
	})

	// Dynamic toggling driven by the AGGREGATE of per-connection
	// estimates, applied to every connection — the policy scope §3.2
	// describes. One multi-port engine endpoint is exactly that shape:
	// per-port estimators, a throughput-weighted aggregate decision, and
	// the full mode application (including the cork threshold on
	// re-batch) on every connection.
	var tog *policy.Toggler
	var dynEp *eng.Endpoint
	if dyn != nil {
		tog = policy.NewToggler(dyn.Objective, dyn.Toggler, dyn.Initial, s.Rand())
		dynEp = eng.New(eng.Config{
			Controller:   tog,
			Initial:      dyn.Initial,
			CorkOnBytes:  cal.CorkOnBytes,
			MaxRemoteAge: dyn.MaxRemoteAge,
		}, ports...)
		sim.NewTicker(s, dyn.Interval, func(now sim.Time) { dynEp.Tick(qstate.Time(now)) })
	}

	var end sim.Time
	for _, c := range conns {
		if e := c.gen.Start(); e > end {
			end = e
		}
	}
	s.RunUntil(end)
	for _, c := range conns {
		c.gen.FlushSends()
	}
	deadline := s.Now().Add(50 * time.Millisecond)
	for s.Now() < deadline {
		pending := 0
		for _, c := range conns {
			pending += c.gen.Outstanding()
		}
		if pending == 0 || !s.Step() {
			break
		}
	}

	ests := make([]core.Estimate, n)
	var pooled time.Duration
	var count uint64
	for i, c := range conns {
		ests[i] = probes[i].Tick(qstate.Time(s.Now())).Estimate
		r := c.gen.Finalize()
		pooled += r.Latency.Sum()
		count += r.Latency.Count()
	}
	var mean time.Duration
	if count > 0 {
		mean = pooled / time.Duration(count)
	}
	onShare := 0.0
	var switches uint64
	if tog != nil {
		st := dynEp.Stats()
		if st.TotalTicks > 0 {
			onShare = float64(st.OnTicks) / float64(st.TotalTicks)
		}
		switches = tog.Stats().Switches
	}
	return mean, ests, onShare, switches
}

// WriteMultiConn renders the multi-connection table.
func WriteMultiConn(w io.Writer, m *MultiConnOut) {
	fmt.Fprintf(w, "Multi-connection aggregation — %d connections, %.0f kRPS total\n", m.Conns, m.Rate/1000)
	for i, e := range m.PerConn {
		fmt.Fprintf(w, "  conn %d: est latency %v, throughput %.0f B/s (valid=%v)\n",
			i, e.Latency.Round(time.Microsecond), e.Throughput, e.Valid)
	}
	fmt.Fprintf(w, "aggregate estimate: %v; measured mean: %v\n",
		m.Aggregate.Latency.Round(time.Microsecond), m.Measured.Round(time.Microsecond))
	fmt.Fprintf(w, "aggregate-driven toggling: measured %v, batch-on residency %.0f%%\n",
		m.DynamicMeasured.Round(time.Microsecond), 100*m.OnShare)
}
