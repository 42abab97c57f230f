package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/loadgen"
	hist "e2ebatch/internal/metrics"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/tcpsim"
)

const (
	setupReps = 5 // set-up is repeated and its median reported

	// pinnedSlices is how many slices a simulator workload runs however
	// long they take. The simulator's own results (virtual latencies,
	// estimator errors, boundary counts) are taken from these alone, so
	// they repeat exactly for one binary and seed whatever the host's speed
	// lets the rest of the window hold.
	pinnedSlices = 5
)

// simWorkload is a simulator workload: fixed virtual work per slice, as many
// slices as the window holds.
type simWorkload struct {
	name string
	// sliceVirtual is one slice's simulated duration: a second or two of
	// wall time on the host the benchmark was defined on.
	sliceVirtual time.Duration
	// spanEvery keeps 1 in N sim.request spans in the trace file.
	spanEvery uint64
	spec      func(seed int64, dur time.Duration) figures.RunSpec
}

var simWorkloads = []simWorkload{
	{
		// The paper's Fig. 4a operating point just below the cutoff.
		name:         "sim-set16k",
		sliceVirtual: 600 * time.Millisecond,
		spanEvery:    1,
		spec: func(seed int64, dur time.Duration) figures.RunSpec {
			cal := figures.DefaultCalib()
			return figures.RunSpec{
				Calib:       cal,
				Seed:        seed,
				Rate:        30000,
				Duration:    dur,
				Workload:    loadgen.SetWorkload(cal.KeySize, cal.ValSize),
				Dynamic:     figures.DefaultDynamicSpec(cal.SLO),
				TailCapture: true,
			}
		},
	},
	{
		// Same simulator, almost no payload: the event core and the
		// control loop (v2 frames, ComposeTail every tick) do the work.
		name:         "sim-small-tails",
		sliceVirtual: 4 * time.Second,
		spanEvery:    16,
		spec: func(seed int64, dur time.Duration) figures.RunSpec {
			cal := figures.DefaultCalib()
			shape := loadgen.BurstShape(20*time.Millisecond, 5*time.Millisecond, 3.0, 0.35)
			dyn := figures.DefaultDynamicSpec(cal.SLO)
			dyn.Objective = policy.QuantileUnderSLO{Quantile: 0.99, SLO: cal.SLO}
			dyn.TailQuantile = 0.99
			return figures.RunSpec{
				Calib:        cal,
				Seed:         seed,
				Rate:         60000 / loadgen.MeanShape(shape, time.Second),
				RateFn:       shape,
				Duration:     dur,
				Workload:     loadgen.SetWorkload(cal.KeySize, 64),
				SyscallBatch: 4,
				WithHints:    true,
				Dynamic:      dyn,
				TailCapture:  true,
			}
		},
	},
}

// simSlice is what one figures.Run contributed.
type simSlice struct {
	m   metrics
	out *figures.RunOut
}

// tickCounter is the engine.Observer of the traced run: it counts ticks and
// records one zero-length engine.tick span per tick (a tick takes no virtual
// time).
type tickCounter struct {
	spans *spanLog
	ticks int64
}

func (t *tickCounter) ObserveTick(at qstate.Time, _ engine.TickResult) {
	t.spans.add(spanRec{Req: t.ticks, Name: "engine.tick", Start: int64(at), End: int64(at)})
	t.ticks++
}

// runSimSlice runs one slice and measures it from outside.
func runSimSlice(spec figures.RunSpec, probe *speedProbe, g *gates) simSlice {
	runtime.GC() // every slice starts from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), now()
	out := figures.Run(spec)
	t1 := now()
	given, cpu := t1.since(t0), cpuTime()-c0
	x := probe.index(t0.at, t1.at)
	runtime.ReadMemStats(&m1)

	res := out.Res
	simGates(out, g)

	n := float64(res.Completed)
	m := metrics{
		"host.index":          x,
		"req_per_s":           n / given.Seconds() * x,
		"cpu_us_per_req":      us(cpu) / n / x,
		"alloc_bytes_per_req": float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		"allocs_per_req":      float64(m1.Mallocs-m0.Mallocs) / n,
		"est_err_pct":         errPct(out.Est[tcpsim.UnitBytes].Valid, out.Est[tcpsim.UnitBytes].Latency, res.Latency.Mean()),
		"est_p99_err_pct":     errPct(out.TailEst.Valid, out.TailEst.P99, res.Latency.Quantile(0.99)),
		"gc_cycles":           float64(m1.NumGC - m0.NumGC),
		"gc_pause_ms":         float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"heap_sys_mb":         float64(m1.HeapSys) / (1 << 20),
		"live_mb":             float64(m0.HeapAlloc) / (1 << 20),
	}
	// Only counts and the latency histogram are kept. Holding on to the
	// sampled trace would grow the live heap from slice to slice, the
	// collector would run less often, and later slices would read faster.
	kept := *out
	kept.Log = nil
	kept.Res = &loadgen.Result{Issued: res.Issued, Completed: res.Completed, Dropped: res.Dropped, Latency: res.Latency}
	return simSlice{m: m, out: &kept}
}

// simGates checks one finished simulator run: every request issued was
// answered, and each side read exactly the bytes the other wrote.
func simGates(out *figures.RunOut, g *gates) {
	res := out.Res
	g.add(int64(res.Issued))
	g.check(res.Issued == res.Completed && res.Dropped == 0, int64(res.Issued-res.Completed+res.Dropped),
		"sim: issued %d, completed %d, dropped %d", res.Issued, res.Completed, res.Dropped)
	g.check(out.ClientConn.SentDigest == out.ServerConn.ReadDigest &&
		out.ServerConn.SentDigest == out.ClientConn.ReadDigest, int64(res.Issued),
		"sim: byte streams differ between sender and receiver")
}

// sameRunGate requires a re-run of one spec to reproduce the first run's
// count and latencies exactly.
func sameRunGate(first, again *loadgen.Result, g *gates) {
	g.add(int64(again.Issued))
	g.check(again.Completed == first.Completed && again.Latency.Mean() == first.Latency.Mean() &&
		again.Latency.Quantile(0.99) == first.Latency.Quantile(0.99), int64(again.Issued),
		"sim: slice 0 re-run differs: completed %d/%d mean %v/%v p99 %v/%v", first.Completed, again.Completed,
		first.Latency.Mean(), again.Latency.Mean(), first.Latency.Quantile(0.99), again.Latency.Quantile(0.99))
}

// errPct is |est − truth| / truth in percent; an estimate that abstained
// counts as 100.
func errPct(valid bool, est, truth time.Duration) float64 {
	if !valid || truth <= 0 {
		return 100
	}
	return 100 * math.Abs(float64(est-truth)) / float64(truth)
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runSim measures one simulator workload: set-up, then slice after slice (the
// i-th on seed+i) until the next would not fit in the window, the pinned ones
// always. With spans set it is the traced run: OnComplete and the engine
// observer are attached, and the pinned slices are all it runs, since spans
// and counts are what it is for.
func runSim(w simWorkload, opt options, spans *spanLog) (metrics, metrics, gates) {
	var g gates
	dur := w.sliceVirtual

	// Set-up: the simulator has no state to build, so this is the
	// fixed-work warm-up alone (heap growth, first-use initialisation). It
	// keeps the CPU busy for a twentieth of a second, too short for the steal
	// counter's hundredths, so it is timed on the process's CPU clock, which
	// stolen time does not advance, and scaled like every other CPU-bound
	// time by the host's speed index.
	probe := startProbe()
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		c0 := cpuTime()
		figures.Run(w.spec(int64(opt.seed), dur/20))
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	setup := median(setups) / probe.index(setupStart, time.Now())

	var done []simSlice
	var lat hist.Histogram
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	window := time.Duration(opt.seconds * float64(time.Second))
	var longest time.Duration
	for i, start := 0, time.Now(); i < pinnedSlices || spans == nil && time.Since(start)+longest <= window; i++ {
		spec := w.spec(int64(opt.seed)+int64(i), dur)
		if spans != nil {
			base := int64(i) << 32 // request ids restart in every slice
			spec.Observer = &tickCounter{spans: spans}
			spec.OnComplete = func(id uint64, scheduledNs, completedNs int64) {
				if id%w.spanEvery == 0 {
					spans.add(spanRec{Req: base | int64(id), Name: "sim.request", Start: scheduledNs, End: completedNs})
				}
			}
		}
		t0 := time.Now()
		s := runSimSlice(spec, probe, &g)
		longest = max(longest, time.Since(t0))
		if i < pinnedSlices {
			lat.Merge(&s.out.Res.Latency)
		}
		done = append(done, s)
	}
	probe.stop()
	gcShare := (gcCPUSeconds() - gc0) / (cpuTime() - cpu0).Seconds()

	// Determinism: slice 0 again must reproduce its counts and latencies.
	first := done[0].out.Res
	sameRunGate(first, figures.Run(w.spec(int64(opt.seed), dur)).Res, &g)

	var ms []metrics
	for _, s := range done {
		ms = append(ms, s.m)
	}
	pinned := ms[:pinnedSlices]
	e2e := metrics{"setup_s": setup, "latency_us": us(lat.Mean())}
	showSlices(w.name, ms)
	medianOf(ms, e2e, "req_per_s", "cpu_us_per_req")

	layer := metrics{
		"sim_mean_us":          us(lat.Mean()),
		"sim_p99_us":           us(lat.Quantile(0.99)),
		"est_err_pct":          mean(column(pinned, "est_err_pct")),
		"est_p99_err_pct":      mean(column(pinned, "est_p99_err_pct")),
		"runtime.gc_cycles":    sumOf(column(pinned, "gc_cycles")),
		"runtime.gc_pause_ms":  sumOf(column(pinned, "gc_pause_ms")),
		"runtime.gc_cpu_share": gcShare,
		"runtime.heap_peak_mb": maxOf(column(ms, "heap_sys_mb")),
	}
	medianOf(ms, layer, "alloc_bytes_per_req", "allocs_per_req")
	hostLayer(ms, layer)
	simBoundaries(done[:pinnedSlices], layer)
	return e2e, layer, g
}

// simBoundaries adds the counts the simulator keeps at its layer boundaries,
// summed over the pinned slices and divided where a ratio is asked for.
func simBoundaries(done []simSlice, layer metrics) {
	var reqs, segs, acks, exch, holds, srvReqs, batches float64
	var ticks, valid, degraded, abstain, switches float64
	var onShare, cApp, cSoft, sApp, sSoft float64
	for _, s := range done {
		o := s.out
		reqs += float64(o.Res.Completed)
		for _, c := range []tcpsim.Stats{o.ClientConn, o.ServerConn} {
			segs += float64(c.Segments)
			acks += float64(c.PureAcks)
			exch += float64(c.StatesExchanged)
			holds += float64(c.NagleHolds)
		}
		srvReqs += float64(o.ServerStats.Requests)
		batches += float64(o.ServerStats.ReadBatches)
		ticks += float64(o.TotalTicks)
		valid += float64(o.OnlineEstimates)
		degraded += float64(o.DegradedTicks)
		abstain += float64(o.TailAbstainedTicks)
		switches += float64(o.TogglerStats.Switches)
		onShare += o.OnShare
		cApp += o.ClientAppUtil
		cSoft += o.ClientSoftUtil
		sApp += o.ServerAppUtil
		sSoft += o.ServerSoftUtil
	}
	n := float64(len(done))
	layer["tcpsim.segments_per_req"] = segs / reqs
	layer["tcpsim.pure_acks_per_req"] = acks / reqs
	layer["tcpsim.exchanges_per_req"] = exch / reqs
	layer["tcpsim.nagle_holds_per_req"] = holds / reqs
	layer["kv.reqs_per_read_batch"] = srvReqs / batches
	layer["engine.ticks"] = ticks
	layer["engine.valid_share"] = valid / ticks
	layer["engine.degraded_share"] = degraded / ticks
	layer["engine.tail_abstain_share"] = abstain / ticks
	layer["policy.on_share"] = onShare / n
	layer["policy.switches"] = switches
	layer["cpumodel.client_app_util"] = cApp / n
	layer["cpumodel.client_softirq_util"] = cSoft / n
	layer["cpumodel.server_app_util"] = sApp / n
	layer["cpumodel.server_softirq_util"] = sSoft / n
}

func sumOf(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}
