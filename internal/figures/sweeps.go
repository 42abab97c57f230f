package figures

import (
	"fmt"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/faults"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/tcpsim"
)

// The simulated figures, one sweep each: the controlled variables sit in
// p.spec, vary builds one row per value of the varied variable, and the
// columns name what the table reads.

// fig2 is the paper's Figure 2: a fixed offered load served for a bare-metal
// and a VM-hosted client. The VM's higher client-side costs flip the Nagle
// on/off outcome while the server's CPU usage stays put.
func fig2(p Params) *Sweep {
	cal := p.Calib
	return &Sweep{
		title: text("Figure 2 — fixed %.0f kRPS SET load, bare-metal vs VM client", cal.Fig2Rate/1000),
		Rows:  vary([]float64{1, cal.VMScale}, func(scale float64) []RunSpec { return offOn(scaled(p.spec(cal.Fig2Rate), scale)) }),
		cols: [][]column{
			{{"client", "%-11s", func(r Row) any {
				if r.Specs[0].ClientScale == 1 {
					return "bare-metal"
				}
				return "vm"
			}}},
			{
				{"cliCPU", "%8.2fc", of(0, func(o *RunOut) any { return o.ClientAppUtil + o.ClientSoftUtil })},
				{"srvCPU", "%8.2fc", of(0, func(o *RunOut) any { return o.ServerAppUtil + o.ServerSoftUtil })},
			},
			{{"lat (off)", "%11v", mean(0)}, {"lat (on)", "%11v", mean(1)}},
			{{"nagle", "%s", faster("helps", "hurts")}},
		},
	}
}

// fig4Rates is the Figure 4 load grid: 5 to 90 kRPS in steps of 5.
func fig4Rates() []float64 {
	rates := make([]float64, 0, 18)
	for r := 5000.0; r <= 90000; r += 5000 {
		rates = append(rates, r)
	}
	return rates
}

// fig4a is the homogeneous 16 KiB SET sweep of Figure 4a.
func fig4a(p Params) *Sweep { return fig4(p, "Figure 4a (100% SET)", nil, false) }

// fig4b is the 95:5 SET:GET mix of Figure 4b, whose 16 KiB GET responses
// break the byte-based approximation.
func fig4b(p Params) *Sweep {
	wl := loadgen.MixedWorkload(p.Calib.KeySize, p.Calib.ValSize, 950)
	return fig4(p, "Figure 4b (95% SET / 5% GET)", wl, true)
}

// fig4 sweeps offered load in both batching modes: the measured mean beside
// the offline byte-unit estimate from the collected counters (the paper's
// prototype methodology).
func fig4(p Params, name string, wl loadgen.RequestMaker, preload bool) *Sweep {
	slo := p.Calib.SLO
	return &Sweep{
		title: text("%s — mean latency vs offered load (SLO %v)", name, slo),
		Rows: vary(p.rates(fig4Rates()...), func(rate float64) []RunSpec {
			s := p.spec(rate)
			s.Workload, s.PreloadKeys = wl, preload
			return offOn(s)
		}),
		cols: [][]column{
			{krpsCol},
			{{"meas off", "%12v", mean(0)}, {"est(B) off", "%12v", bytesEst(0)}},
			{{"meas on", "%12v", mean(1)}, {"est(B) on", "%12v", bytesEst(1)}},
			{{"winner", "%s", faster("on", "off")}},
		},
		foot: func(s *Sweep) []stat { return fig4Stats(s, slo) },
	}
}

// fig4Stats derives the lines under Figure 4, rates in kRPS and 0 where a
// line is never reached: the lowest rates at which batching wins, measured
// and by byte estimate (the paper's cutoff lines); the highest rate meeting
// the SLO in each mode and their ratio (paper: 1.93×); and the interpolated
// rate where the batching-off curve crosses the SLO, with the batching gain
// there (paper: 2.80× at 37.5 kRPS).
func fig4Stats(s *Sweep, slo time.Duration) []stat {
	var measCut, estCut, offMax, onMax, ext, boundary, gain float64
	lat := func(r Row, arm int) time.Duration { return r.Runs[arm].Res.Latency.Mean() }
	for i, r := range s.Rows {
		rate, off, on := r.Specs[0].Rate, lat(r, 0), lat(r, 1)
		if measCut == 0 && on < off {
			measCut = rate
		}
		eOff, eOn := r.Runs[0].Est[tcpsim.UnitBytes], r.Runs[1].Est[tcpsim.UnitBytes]
		if estCut == 0 && eOn.Valid && eOff.Valid && eOn.Latency < eOff.Latency {
			estCut = rate
		}
		if off <= slo && rate > offMax {
			offMax = rate
		}
		if on <= slo && rate > onMax {
			onMax = rate
		}
		if i == 0 || boundary != 0 {
			continue
		}
		if lo := s.Rows[i-1]; lat(lo, 0) <= slo && off > slo {
			frac := float64(slo-lat(lo, 0)) / float64(off-lat(lo, 0))
			boundary = lo.Specs[0].Rate + frac*(rate-lo.Specs[0].Rate)
			if onAt := float64(lat(lo, 1)) + frac*float64(on-lat(lo, 1)); onAt > 0 {
				gain = float64(slo) / onAt
			}
		}
	}
	if offMax > 0 {
		ext = onMax / offMax
	}
	return []stat{
		{"measured cutoff", "measured cutoff: %.1f kRPS", measCut / 1000},
		{"estimated cutoff", ", estimated cutoff: %.1f kRPS\n", estCut / 1000},
		{"off SLO max", "SLO range: off <= %.1f kRPS", offMax / 1000},
		{"on SLO max", ", on <= %.1f kRPS", onMax / 1000},
		{"extension", " (extension %.2fx; paper: 1.93x)\n", ext},
		{"boundary", "at the off-mode SLO boundary (%.1f kRPS)", boundary / 1000},
		{"latency gain", ": batching latency %.2fx lower (paper: 2.80x at 37.5 kRPS)\n", gain},
	}
}

// toggle is the paper's "had they been used to dynamically toggle Nagle
// batching" (§4) made real: the ε-greedy toggler against both static modes.
func toggle(p Params) *Sweep {
	slo := p.Calib.SLO
	return &Sweep{
		title: text("Dynamic toggling — estimate-driven ε-greedy vs static modes (SLO %v)", slo),
		Rows: vary(p.rates(10000, 30000, 45000, 60000), func(rate float64) []RunSpec {
			return append(offOn(p.spec(rate)), dynamic(p.spec(rate), DefaultDynamicSpec(slo)))
		}),
		cols: [][]column{
			{krpsCol},
			{{"off", "%10v", mean(0)}, {"on", "%10v", mean(1)}, {"dynamic", "%10v", mean(2)}},
			{{"on-share", "%6.0f%%", onShare(2)}, {"switches", "%8d", switches(2)}},
		},
	}
}

// hintsSweep is the semantic-gap experiment (§3.3): on the heterogeneous
// Figure 4b workload, with the client batching p.SyscallBatch requests per
// send(2) to widen the gap, the byte, packet and send-unit estimates drift
// from the measured request latency while the create/complete hints stay
// exact.
func hintsSweep(p Params) *Sweep {
	cal := p.Calib
	var specs []RunSpec
	for _, rate := range p.rates(10000, 30000) {
		for _, s := range offOn(p.spec(rate)) {
			s.WithHints, s.PreloadKeys, s.SyscallBatch = true, true, p.SyscallBatch
			s.Workload = loadgen.MixedWorkload(cal.KeySize, cal.ValSize, 950)
			specs = append(specs, s)
		}
	}
	cols := [][]column{
		{krpsCol, {"mode", "%-5s", func(r Row) any {
			if r.Specs[0].BatchOn {
				return "on"
			}
			return "off"
		}}},
		{{"measured", "%10v", mean(0)}},
	}
	for u := tcpsim.Unit(0); u < tcpsim.NumUnits; u++ {
		cols = append(cols, estimated(u.String(), func(o *RunOut) core.Estimate { return o.Est[u] }))
	}
	cols = append(cols, estimated("hints", func(o *RunOut) core.Estimate {
		return core.Estimate{Latency: o.HintAvgs.Latency, Throughput: o.HintAvgs.Throughput, Valid: o.HintAvgs.Valid}
	}))
	return &Sweep{
		title: text("Semantic gap — estimate vs measured on 95:5 SET:GET (client batches %d requests per send)", p.SyscallBatch),
		Rows:  vary(specs, func(s RunSpec) []RunSpec { return []RunSpec{s} }),
		cols:  cols,
	}
}

// aimdSweep is §5's "Better Batching Heuristics": AIMD adapts the cork
// threshold gradually instead of toggling on/off.
func aimdSweep(p Params) *Sweep {
	slo := p.Calib.SLO
	return &Sweep{
		title: text("AIMD batch-limit control vs static modes (SLO %v)", slo),
		Rows: vary(p.rates(10000, 60000), func(rate float64) []RunSpec {
			a := p.spec(rate)
			a.AIMD = DefaultAIMDSpec(slo)
			return append(offOn(p.spec(rate)), a)
		}),
		cols: [][]column{
			{krpsCol},
			{{"off", "%10v", mean(0)}, {"on", "%10v", mean(1)}, {"aimd", "%10v", mean(2)}},
			{{"final cork", "%10d", of(2, func(o *RunOut) any { return o.FinalCork })}},
		},
	}
}

// tick sweeps the decision-tick period at a fixed high load where batching
// clearly wins (§5 "Toggling Granularity"): finer ticks react faster,
// coarser ticks resist noise.
func tick(p Params, rate float64, intervals []time.Duration) *Sweep {
	return &Sweep{
		title: func(s *Sweep) string {
			return fmt.Sprintf("Toggling granularity ablation — %.0f kRPS, static batch-on = %v",
				rate/1000, shown(s.Base.Runs[0].Res.Latency.Mean()))
		},
		Base: row(batchOn(p.spec(rate))),
		Rows: vary(intervals, func(iv time.Duration) []RunSpec {
			d := DefaultDynamicSpec(p.Calib.SLO)
			d.Interval = iv
			return []RunSpec{dynamic(p.spec(rate), d)}
		}),
		cols: [][]column{
			{{"tick", "%10v", func(r Row) any { return r.Specs[0].Dynamic.Interval }}},
			{{"dynamic", "%10v", mean(0)}, {"on-share", "%8.0f%%", onShare(0)}, {"switches", "%9d", switches(0)}},
		},
	}
}

// exchange sweeps the metadata-exchange rate limit at a fixed load, with a
// passive online estimator sampling every 5 ms (§5 "Metadata Exchange"):
// the paper argues the exchange can be made arbitrarily infrequent because
// "Little's law estimates remain accurate regardless".
func exchange(p Params, rate float64, intervals []time.Duration) *Sweep {
	return &Sweep{
		title: text("Metadata-exchange frequency ablation — %.0f kRPS, batch-on", rate/1000),
		Rows: vary(intervals, func(iv time.Duration) []RunSpec {
			s := batchOn(p.spec(rate))
			s.ExchangeInterval, s.OnlineEstimateEvery = iv, 5*time.Millisecond
			return []RunSpec{s}
		}),
		cols: [][]column{
			{{"interval", "%12s", func(r Row) any {
				if iv := r.Specs[0].ExchangeInterval; iv > 0 {
					return iv.String()
				}
				return "every-seg"
			}}},
			{{"exchanges", "%10d", of(0, func(o *RunOut) any { return o.ClientConn.StatesExchanged + o.ServerConn.StatesExchanged })}},
			{
				{"measured", "%10v", mean(0)},
				{"online est", "%12v", of(0, func(o *RunOut) any { return o.OnlineAvg })},
				{"ticks", "%7d", of(0, func(o *RunOut) any { return o.OnlineCount })},
			},
		},
	}
}

// cscan sweeps the client cost multiplier at the fixed Figure-2 load:
// Figure 1's c-axis in the full system. As the client gets slower, the same
// server-side batching decision flips from helpful to harmful.
func cscan(p Params, scales []float64) *Sweep {
	cal := p.Calib
	return &Sweep{
		title: text("Client-cost sweep — Figure 1's c-axis in the full system (%.0f kRPS)", cal.Fig2Rate/1000),
		Rows:  vary(scales, func(scale float64) []RunSpec { return offOn(scaled(p.spec(cal.Fig2Rate), scale)) }),
		cols: [][]column{
			{{"c scale", "%8.2f", func(r Row) any { return r.Specs[0].ClientScale }}},
			{{"lat (off)", "%12v", mean(0)}, {"lat (on)", "%12v", mean(1)}},
			{{"batching", "%s", faster("helps", "hurts")}},
		},
		foot: func(s *Sweep) []stat {
			for _, r := range s.Rows {
				if faster("helps", "hurts")(r) == "hurts" {
					return []stat{{"flip scale", "outcome flips at client-cost scale %.2f\n", r.Specs[0].ClientScale}}
				}
			}
			return nil
		},
	}
}

// bandits pits ε-greedy (the paper's "light method" suggestion) against
// UCB1 (the multi-armed-bandit literature it cites) in the full system.
func bandits(p Params, rates []float64) *Sweep {
	slo := p.Calib.SLO
	return &Sweep{
		title: text("Bandit comparison — ε-greedy vs UCB1 dynamic toggling (SLO %v)", slo),
		Rows: vary(rates, func(rate float64) []RunSpec {
			eps, ucb := DefaultDynamicSpec(slo), DefaultDynamicSpec(slo)
			ucb.UseUCB = true
			return []RunSpec{dynamic(p.spec(rate), eps), dynamic(p.spec(rate), ucb)}
		}),
		cols: [][]column{
			{krpsCol},
			{{"ε-greedy", "%10v", mean(0)}, {"switches", "%8d", switches(0)}, {"on-share", "%8.0f%%", onShare(0)}},
			{{"ucb1", "%10v", mean(1)}, {"switches", "%8d", switches(1)}, {"on-share", "%8.0f%%", onShare(1)}},
		},
	}
}

// loss probes the estimator under packet loss with go-back-N recovery: the
// paper's queueing argument holds for admitted packets, and recovery delay is
// genuine residency in the unacked queue, so measured and estimated latency
// should inflate together rather than diverge.
func loss(p Params, rate float64, losses []float64) *Sweep {
	return &Sweep{
		title: text("Loss robustness — %.0f kRPS with go-back-N recovery", rate/1000),
		Rows: vary(losses, func(l float64) []RunSpec {
			s := p.spec(rate)
			s.LossProb = l
			return []RunSpec{s}
		}),
		cols: [][]column{
			{lossCol},
			{{"measured", "%12v", mean(0)}, {"est (bytes)", "%12v", bytesEst(0)}},
			{retransmitsCol, {"dropped", "%8d", of(0, func(o *RunOut) any { return o.Res.Dropped })}},
		},
	}
}

// faultSweep runs dynamic toggling under increasing packet loss with the
// fault plan p.FaultPlan layered on top ("none" for the loss-only baseline).
// The claim under test is graceful degradation: as faults mount, the
// estimator flags degraded ticks and the policy retreats to its safe default
// rather than feed garbage estimates into mode decisions.
func faultSweep(p Params, rate float64, losses []float64) *Sweep {
	return &Sweep{
		title: text("Fault injection — %.0f kRPS, plan %q, dynamic toggling", rate/1000, p.FaultPlan),
		Rows: vary(losses, func(l float64) []RunSpec {
			plan, err := faults.Standard(p.FaultPlan, p.Dur)
			if err != nil {
				panic(err)
			}
			s := dynamic(p.spec(rate), DefaultDynamicSpec(p.Calib.SLO))
			s.LossProb, s.Faults = l, plan
			return []RunSpec{s}
		}),
		cols: [][]column{
			{lossCol},
			{{"measured", "%12v", mean(0)}, {"est (bytes)", "%12v", bytesEst(0)}},
			{
				// The share of decision ticks the online estimator ran
				// without usable peer metadata.
				{"degraded", "%8.1f%%", of(0, func(o *RunOut) any {
					if o.TotalTicks == 0 {
						return 0.0
					}
					return 100 * (float64(o.DegradedTicks) / float64(o.TotalTicks))
				})},
				{"fallbacks", "%9d", of(0, func(o *RunOut) any { return o.TogglerStats.SafeFallbacks })},
			},
			{retransmitsCol, {"final mode", "%10v", of(0, func(o *RunOut) any { return o.FinalMode })}},
		},
	}
}

// vary builds one row per value of a sweep's varied variable from the specs
// of its arms.
func vary[V any](values []V, arms func(v V) []RunSpec) []Row {
	rows := make([]Row, len(values))
	for i, v := range values {
		rows[i].Specs = arms(v)
	}
	return rows
}

// text is a title that reads no run.
func text(format string, args ...any) func(*Sweep) string {
	t := fmt.Sprintf(format, args...)
	return func(*Sweep) string { return t }
}

// offOn is s in both static batching modes: a row's off and on arms.
func offOn(s RunSpec) []RunSpec { return []RunSpec{s, batchOn(s)} }

// batchOn is s with static batching on.
func batchOn(s RunSpec) RunSpec {
	s.BatchOn = true
	return s
}

// dynamic is s under estimate-driven toggling.
func dynamic(s RunSpec, d *DynamicSpec) RunSpec {
	s.Dynamic = d
	return s
}

// scaled is s with the client's costs multiplied by scale.
func scaled(s RunSpec, scale float64) RunSpec {
	s.ClientScale = scale
	return s
}

// of reads a cell from the output of a row's arm.
func of(arm int, f func(o *RunOut) any) func(Row) any {
	return func(r Row) any { return f(r.Runs[arm]) }
}

// mean is the measured mean latency of a row's arm.
func mean(arm int) func(Row) any {
	return of(arm, func(o *RunOut) any { return o.Res.Latency.Mean() })
}

// bytesEst is the offline byte-unit estimate of a row's arm.
func bytesEst(arm int) func(Row) any {
	return of(arm, func(o *RunOut) any { return o.Est[tcpsim.UnitBytes] })
}

// onShare is the percentage of decision ticks a row's arm spent batching.
func onShare(arm int) func(Row) any {
	return of(arm, func(o *RunOut) any { return 100 * o.OnShare })
}

// switches counts the mode switches of a row's toggling arm.
func switches(arm int) func(Row) any {
	return of(arm, func(o *RunOut) any { return o.TogglerStats.Switches })
}

// faster says whether a row's second arm beats its first on mean latency.
func faster(yes, no string) func(Row) any {
	return func(r Row) any {
		if r.Runs[1].Res.Latency.Mean() < r.Runs[0].Res.Latency.Mean() {
			return yes
		}
		return no
	}
}

var (
	krpsCol        = column{"kRPS", "%8.1f", func(r Row) any { return r.Specs[0].Rate / 1000 }}
	lossCol        = column{"loss", "%7.1f%%", func(r Row) any { return 100 * r.Specs[0].LossProb }}
	retransmitsCol = column{"retransmits", "%11d", of(0, func(o *RunOut) any { return o.ClientConn.Retransmits + o.ServerConn.Retransmits })}
)

// estimated is an estimate column and its error against the row's measured
// mean. An abstained estimate prints "-" in both.
func estimated(head string, est func(*RunOut) core.Estimate) []column {
	return []column{
		{head, "%10v", func(r Row) any { return est(r.Runs[0]) }},
		{"err", "%5.0f%%", func(r Row) any {
			if e := est(r.Runs[0]); e.Valid {
				return 100 * relErr(e.Latency, r.Runs[0].Res.Latency.Mean())
			}
			return nil
		}},
	}
}

// relErr returns |est-meas|/meas.
func relErr(est, meas time.Duration) float64 {
	if meas == 0 {
		return 0
	}
	d := est - meas
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(meas)
}
