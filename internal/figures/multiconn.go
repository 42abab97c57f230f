package figures

import (
	"fmt"
	"time"

	"e2ebatch/internal/core"
	eng "e2ebatch/internal/engine"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// multiConn is the multi-connection experiment of §3.2's closing remark:
// n client connections, each with its own load generator at rate/n, against
// one server over one link. Per-connection estimates are aggregated
// (throughput-weighted) when one batching decision covers several
// connections. The first pass runs statically (batch off) to validate the
// aggregation; the second toggles all connections at once from the
// aggregate.
func multiConn(p Params, n int, rate float64) *Sweep {
	if n <= 0 {
		panic("figures: multiConn needs n > 0")
	}
	static := p.spec(rate)
	return &Sweep{
		title: text("Multi-connection aggregation — %d connections, %.0f kRPS total", n, rate/1000),
		Base:  row(static, dynamic(static, DefaultDynamicSpec(p.Calib.SLO))),
		foot: func(s *Sweep) []stat {
			static, dyn := s.Base.Runs[0], s.Base.Runs[1]
			var st []stat
			for i, e := range static.conns {
				st = append(st,
					stat{fmt.Sprintf("conn %d latency", i), fmt.Sprintf("  conn %d: est latency %%v", i), e.Latency},
					stat{fmt.Sprintf("conn %d throughput", i), ", throughput %.0f B/s", e.Throughput},
					stat{fmt.Sprintf("conn %d valid", i), " (valid=%v)\n", e.Valid})
			}
			return append(st,
				stat{"aggregate", "aggregate estimate: %v", core.Aggregate(static.conns)},
				stat{"measured", "; measured mean: %v\n", static.Res.Latency.Mean()},
				stat{"dynamic", "aggregate-driven toggling: measured %v", dyn.Res.Latency.Mean()},
				stat{"on-share", ", batch-on residency %.0f%%\n", 100 * dyn.OnShare})
		},
		exec: func(spec RunSpec) *RunOut { return runMulti(spec, n) },
	}
}

// runMulti wires spec's offered load across n connections. Its output holds
// the pooled latency of all of them, each one's steady estimate (conns) and,
// for a dynamic spec, the batch-on residency.
func runMulti(spec RunSpec, n int) *RunOut {
	cal, dyn := spec.Calib, spec.Dynamic
	tb := newTestbed(spec)
	s := tb.s
	engine := kv.NewEngine(tb.store)
	gens := make([]*loadgen.Generator, n)
	ports := make([]eng.Port, n)
	lcfg := tb.load
	lcfg.Rate = spec.Rate / float64(n)
	for i := range gens {
		cc, sc := tcpsim.Connect(tb.cs, tb.ss, tb.link, tb.tcp)
		tcpsim.NewSimServer(engine, sc, cal.Server)
		gens[i] = loadgen.New(s, cc, lcfg, loadgen.SetWorkload(cal.KeySize, cal.ValSize))
		ports[i] = tcpsim.NewEnginePort(cc, sc)
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
	var dynEp *eng.Endpoint
	if dyn != nil {
		dynEp = eng.New(eng.Config{
			Controller:   policy.NewToggler(dyn.Objective, dyn.Toggler, dyn.Initial, s.Rand()),
			Initial:      dyn.Initial,
			CorkOnBytes:  cal.CorkOnBytes,
			MaxRemoteAge: dyn.MaxRemoteAge,
		}, ports...)
		sim.NewTicker(s, dyn.Interval, func(now sim.Time) { dynEp.Tick(qstate.Time(now)) })
	}

	var end sim.Time
	for _, g := range gens {
		if e := g.Start(); e > end {
			end = e
		}
	}
	s.RunUntil(end)
	for _, g := range gens {
		g.FlushSends()
	}
	deadline := s.Now().Add(50 * time.Millisecond)
	for s.Now() < deadline {
		pending := 0
		for _, g := range gens {
			pending += g.Outstanding()
		}
		if pending == 0 || !s.Step() {
			break
		}
	}

	out := &RunOut{Res: &loadgen.Result{}, conns: make([]core.Estimate, n)}
	for i, g := range gens {
		out.conns[i] = probes[i].Tick(qstate.Time(s.Now())).Estimate
		out.Res.Latency.Merge(&g.Finalize().Latency)
	}
	if dynEp != nil {
		if st := dynEp.Stats(); st.TotalTicks > 0 {
			out.OnShare = float64(st.OnTicks) / float64(st.TotalTicks)
		}
	}
	return out
}
