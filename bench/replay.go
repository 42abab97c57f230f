package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"e2ebatch"
	"e2ebatch/internal/core"
	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/shard"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// The layer replay pushes a workload's own request stream through each
// layer's public entry point in isolation and times it from here, so that
// per-layer numbers exist without any edit to the program. A probe is fixed
// work; its result is the work's cost per unit.

// cost is what a probe's fixed work consumed.
type cost struct {
	ns, bytes, allocs float64
}

// probe runs fn once and measures it from outside.
func probe(fn func()) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{float64(d), float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs)}
}

// best repeats a probe and keeps the fastest try with its own allocation
// counts: on a shared host the minimum is the least disturbed run.
func best(tries int, fn func()) cost {
	c := probe(fn)
	for i := 1; i < tries; i++ {
		if n := probe(fn); n.ns < c.ns {
			c = n
		}
	}
	return c
}

// replaySim replays a simulator workload's stream through the event core,
// the byte path and the request maker, then the control plane.
func replaySim(w simWorkload, opt options, layer metrics) {
	spec := w.spec(int64(opt.seed), time.Second)

	// Event core: a standing population of timers, each re-arming itself
	// at a pseudo-random distance, as segments, ACKs and ticks do.
	const events, standing = 1 << 20, 64
	c := best(3, func() {
		s := sim.New(int64(opt.seed))
		left := events
		var fire func()
		x := opt.seed
		fire = func() {
			if left > 0 {
				left--
				x = splitmix64(x)
				s.After(time.Duration(x%50_000), fire)
			}
		}
		for i := 0; i < standing; i++ {
			s.At(sim.Time(i), fire)
		}
		for s.Step() {
		}
	})
	layer["sim.ns_per_event"] = c.ns / events
	layer["sim.allocs_per_event"] = c.allocs / events
	layer["sim.bytes_per_event"] = c.bytes / events

	// Request maker: what the generator pays to produce one request.
	const made = 20000
	var wire []byte
	c = best(3, func() {
		for i := uint64(0); i < made; i++ {
			wire, _ = spec.Workload(i)
		}
	})
	layer["loadgen.maker_ns_per_req"] = c.ns / made
	layer["loadgen.maker_bytes_per_req"] = c.bytes / made

	// Byte path: the workload's requests over a connected pair whose
	// hosts and wire cost no virtual time, so only the moving of bytes
	// (queues, segments, digests, ACKs) is left to measure.
	sends := (64 << 20) / len(wire)
	if sends > 100000 {
		sends = 100000
	}
	var segs, payload float64
	c = best(3, func() {
		s := sim.New(int64(opt.seed))
		free := func(name string) *tcpsim.Stack {
			st := tcpsim.NewStack(s, name)
			st.TxCosts, st.RxCosts, st.AckTxCost, st.AckRxCost = cpumodel.Costs{}, cpumodel.Costs{}, 0, 0
			return st
		}
		cfg := spec.Calib.TCP
		cfg.Nagle = false
		cc, sc := tcpsim.Connect(free("client"), free("server"), netem.NewLink(s, "wire", netem.Config{}), cfg)
		sc.OnReadable(func() { sc.Read(0) })
		for i := 0; i < sends; i++ {
			cc.Send(wire)
			for s.Step() {
			}
		}
		a, b := cc.Stats(), sc.Stats()
		segs, payload = float64(a.Segments+b.Segments), float64(a.BytesSent)
	})
	layer["tcpsim.ns_per_kib"] = c.ns / (payload / 1024)
	layer["tcpsim.alloc_bytes_per_payload_byte"] = c.bytes / payload
	layer["tcpsim.allocs_per_segment"] = c.allocs / segs

	replayEngine(spec, layer)
	replayControl(layer)
}

// recordedTick is one tick of a real run, kept for replay.
type recordedTick struct {
	now    qstate.Time
	sample core.Sample
	result engine.TickResult
}

type tickRecorder struct{ ticks []recordedTick }

func (r *tickRecorder) ObserveTick(now qstate.Time, res engine.TickResult) {
	t := recordedTick{now: now, result: res}
	if len(res.Samples) > 0 {
		t.sample = res.Samples[0]
	}
	// the engine reuses these between ticks
	t.result.Samples = append([]core.Sample(nil), res.Samples...)
	t.result.PerPort = append([]core.Estimate(nil), res.PerPort...)
	r.ticks = append(r.ticks, t)
}

// stubPort feeds an endpoint the samples a real run recorded.
type stubPort struct {
	ticks []recordedTick
	i     int
}

func (p *stubPort) Snapshot(qstate.Time) core.Sample {
	s := p.ticks[p.i].sample
	p.i++
	return s
}
func (p *stubPort) Apply(engine.Decision) error { return nil }
func (p *stubPort) SelfContained() bool         { return false }

// replayEngine records one virtual second of the workload's control ticks
// through the observer seam, then replays the samples through a fresh
// Endpoint.Tick on a stub port and the results through the telemetry
// observer, timing each call.
func replayEngine(spec figures.RunSpec, layer metrics) {
	rec := &tickRecorder{}
	spec.Observer = rec
	figures.Run(spec)
	if len(rec.ticks) == 0 {
		return
	}
	d := spec.Dynamic
	const reps = 20
	var each []float64
	var allocs float64
	for r := 0; r < reps; r++ {
		port := &stubPort{ticks: rec.ticks}
		ep := engine.New(engine.Config{
			Controller:   policy.NewToggler(d.Objective, d.Toggler, d.Initial, rand.New(rand.NewSource(1))),
			Initial:      d.Initial,
			CorkOnBytes:  spec.Calib.CorkOnBytes,
			MaxRemoteAge: d.MaxRemoteAge,
			TailQuantile: d.TailQuantile,
		}, port)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, t := range rec.ticks {
			t0 := time.Now()
			ep.Tick(t.now)
			each = append(each, float64(time.Since(t0)))
		}
		runtime.ReadMemStats(&m1)
		allocs += float64(m1.Mallocs - m0.Mallocs)
	}
	sort.Float64s(each)
	layer["engine.tick_mean_ns"] = mean(each)
	layer["engine.tick_tail_ns"] = percentile(each, tailPercentile(len(each)))
	layer["engine.tick_allocs"] = allocs / float64(len(each))

	ob := obs.NewEngineObserver(obs.NewEngineMetrics(obs.NewRegistry()), obs.NewRing(1024))
	c := best(3, func() {
		for r := 0; r < reps; r++ {
			for _, t := range rec.ticks {
				ob.ObserveTick(t.now, t.result)
			}
		}
	})
	layer["obs.observe_tick_ns"] = c.ns / float64(reps*len(rec.ticks))
}

// replayControl times the per-request instrumentation of the paper's §3.1
// and the fleet's timer wheel: small fixed loops over the public calls.
func replayControl(layer metrics) {
	const n = 1 << 20
	var now e2ebatch.Time
	clock := func() e2ebatch.Time { now += 50; return now }

	tr := e2ebatch.NewHintTracker(clock)
	c := best(3, func() {
		for i := 0; i < n; i++ {
			tr.Create(1)
			tr.Complete(1)
		}
	})
	layer["hints.create_complete_ns"] = c.ns / n

	var q e2ebatch.QueueState
	q.Init(0)
	c = best(3, func() {
		for i := 0; i < n; i++ {
			q.Track(clock(), 1)
			q.Track(clock(), -1)
		}
	})
	layer["qstate.track_ns"] = c.ns / (2 * n)

	spans := func(every uint64) float64 {
		t := span.New(span.Config{SampleEvery: every, Ring: span.NewRing(2, 512)})
		c := best(3, func() {
			var sp span.Span
			for id := uint64(0); id < n; id++ {
				if !t.Sampled(id) {
					continue
				}
				at := int64(id) * 1000
				t.Begin(&sp, 0, 0, id, at)
				t.Finish(&sp, at+500)
			}
		})
		return c.ns / n
	}
	layer["span.begin_finish_ns"] = spans(1)
	layer["span.unsampled_ns"] = spans(1 << 62)

	// Timer wheel: a fleet shard's worth of periodic control ticks.
	const timers, wheelTicks = 4096, 20000
	wheel := shard.NewWheel(0, time.Millisecond)
	ts := make([]shard.Timer, timers)
	for i := range ts {
		ts[i].Fn = func(qstate.Time) {}
	}
	c = best(3, func() {
		for r := 0; r < n/timers; r++ {
			for i := range ts {
				wheel.Arm(&ts[i], time.Duration(1+(i+r)%250)*time.Millisecond)
			}
		}
	})
	layer["shard.wheel_arm_ns"] = c.ns / n
	for i := range ts {
		wheel.ArmPeriodic(&ts[i], time.Duration(1+i%250)*time.Millisecond, 250*time.Millisecond)
	}
	at := wheel.Pos()
	c = probe(func() {
		for i := 0; i < wheelTicks; i++ {
			at += qstate.Time(time.Millisecond)
			wheel.Advance(at)
		}
	})
	layer["shard.wheel_advance_ns_per_tick"] = c.ns / wheelTicks
}

// replaySock replays connection 0's exact stream through the server's
// layers one at a time: the RESP parser in 64 KiB feeds (the server's read
// size), the kv engine, the reply encoder.
func replaySock(w *sockWorkload, opt options, layer metrics) {
	const feed = 64 << 10
	reqs := 200000
	if w.valSize > 1024 {
		reqs = 20000
	}
	c := &loadConn{id: 0, w: w, seed: opt.seed, pool: makePool(opt.seed), last: make([]int, keysPerConn)}
	for k := 0; k < keysPerConn; k++ {
		c.keys = append(c.keys, connKey(0, k))
	}
	encode := func(rs []request) []byte {
		var b []byte
		for _, r := range rs {
			if r.set {
				b = appendCmd(b, "SET", c.keys[r.key], c.pool[r.off:r.off+w.valSize])
			} else {
				b = appendCmd(b, "GET", c.keys[r.key], nil)
			}
		}
		return b
	}
	stream := make([]request, reqs)
	for i := range stream {
		stream[i] = w.stream(opt.seed, 0, uint64(i))
	}
	wire := encode(stream)

	eng := kv.NewEngine(kv.NewStore(func() time.Duration { return time.Since(epoch) }))
	var parser resp.Parser
	parser.Feed(encode(c.allKeys(true)))
	for {
		v, ok, err := parser.Next()
		if err != nil || !ok {
			break
		}
		eng.Execute(v)
	}

	var parse, exec, enc cost
	var parsed, wrong int
	vals := make([]resp.Value, 0, 1024)
	replies := make([]resp.Value, 0, 1024)
	var m [4]runtime.MemStats
	var sink []byte
	for off := 0; off < len(wire); off += feed {
		end := off + feed
		if end > len(wire) {
			end = len(wire)
		}
		vals, replies = vals[:0], replies[:0]
		runtime.ReadMemStats(&m[0])
		t0 := time.Now()
		parser.Feed(wire[off:end])
		for {
			v, ok, err := parser.Next()
			if err != nil || !ok {
				break
			}
			vals = append(vals, v)
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m[1])
		t1b := time.Now()
		for _, v := range vals {
			replies = append(replies, eng.Execute(v))
		}
		t2 := time.Now()
		runtime.ReadMemStats(&m[2])
		t2b := time.Now()
		for _, r := range replies {
			sink = resp.AppendValue(nil, r)
		}
		t3 := time.Now()
		runtime.ReadMemStats(&m[3])
		for i, dst := range []*cost{&parse, &exec, &enc} {
			dst.bytes += float64(m[i+1].TotalAlloc - m[i].TotalAlloc)
			dst.allocs += float64(m[i+1].Mallocs - m[i].Mallocs)
		}
		parse.ns += float64(t1.Sub(t0))
		exec.ns += float64(t2.Sub(t1b))
		enc.ns += float64(t3.Sub(t2b))
		for _, r := range replies {
			if r.IsError() || (r.Type == resp.BulkString && r.Null) {
				wrong++
			}
		}
		parsed += len(vals)
	}
	_ = sink
	if parsed != reqs || wrong != 0 {
		// The replay is a measurement aid, not a gate, but a stream the
		// layers reject would make its numbers meaningless.
		layer["kvserver.replay_share"] = 0
		return
	}
	n := float64(reqs)
	for name, cst := range map[string]cost{"resp.parse": parse, "kv.execute": exec, "resp.encode": enc} {
		layer[name+"_ns_per_req"] = cst.ns / n
		layer[name+"_bytes_per_req"] = cst.bytes / n
		layer[name+"_allocs_per_req"] = cst.allocs / n
	}
	if user := layer["kvserver.user_us_per_req"]; user > 0 {
		layer["kvserver.replay_share"] = (parse.ns + exec.ns + enc.ns) / n / 1e3 / user
	}
	replayControl(layer)
}
