// Command kvload drives a kvserver (or a real Redis) over real TCP while
// maintaining the paper's userspace create/complete counters, printing live
// Little's-law estimates, and — optionally — dynamically toggling
// TCP_NODELAY with the ε-greedy policy those estimates feed.
//
// Usage:
//
//	kvload -addr 127.0.0.1:6380 -rate 20000 -dur 10s
//	kvload -addr 127.0.0.1:6380 -rate 20000 -dur 10s -toggle
//	kvload ... -toggle -obs 127.0.0.1:9091   # live control-loop telemetry
//
// High-fan-in fleet mode holds tens of thousands of concurrent connections
// from one process — every connection's control tick, send pacing and
// reconnect backoff scheduled on shard timer wheels, no goroutine or
// runtime timer per connection beyond the read loop the netpoller parks:
//
//	kvload -addr 127.0.0.1:6380 -conns 50000 -active 5000 -dur 30s -value 64
//
// Even-indexed connections run the controlled ε-greedy NODELAY policy off
// their own estimates; odd-indexed connections keep classic Nagle batching
// as the baseline. The report compares the two groups' p50/p99/p999. With
// -obs, per-shard fleet counters and wheel health are live at /metrics.
//
// With -obs in single-connection mode, every engine tick lands in /metrics
// (tick, degraded and mode-flip counters, exploration and safe-mode
// accounting, estimate and request latency summaries) and the last 1024
// decision records are queryable as JSONL at /debug/decisions?n=K while the
// run is in flight.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"e2ebatch/internal/obs"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "server address")
		rate    = flag.Float64("rate", 10000, "offered load, requests/second (per active connection in fleet mode)")
		dur     = flag.Duration("dur", 5*time.Second, "run duration")
		valSize = flag.Int("value", 16384, "SET value size in bytes")
		keySize = flag.Int("key", 16, "key size in bytes")
		toggle  = flag.Bool("toggle", false, "dynamically toggle TCP_NODELAY from the estimates")
		tick    = flag.Duration("tick", 10*time.Millisecond, "estimate/toggle tick")
		slo     = flag.Duration("slo", 500*time.Microsecond, "latency SLO for the toggling objective")
		seed    = flag.Int64("seed", 1, "toggler exploration RNG seed; 0 draws one from the wall clock")
		obsAddr = flag.String("obs", "", "serve /metrics, /debug/decisions, /debug/vars and /debug/pprof on this address for the run (empty: disabled)")
		spanN   = flag.Uint64("spansample", 64, "with -obs, trace 1-in-N requests as spans at /debug/spans and /debug/trace, audited against the live estimate (0: disabled; 1: every request)")

		conns     = flag.Int("conns", 0, "fleet mode: hold this many concurrent connections (0: single-connection mode)")
		active    = flag.Int("active", 0, "fleet mode: connections sending at -rate (0: conns/10); the rest heartbeat every -idle-every")
		idleEvery = flag.Duration("idle-every", 5*time.Second, "fleet mode: idle connections' heartbeat period")
		shards    = flag.Int("shards", 0, "fleet mode: shard count (0: GOMAXPROCS)")
		ctick     = flag.Duration("ctick", 250*time.Millisecond, "fleet mode: per-connection control tick")
		wheelTick = flag.Duration("wheeltick", time.Millisecond, "fleet mode: shard timer-wheel granularity")
		inflight  = flag.Int("maxinflight", 32, "fleet mode: per-connection pipeline bound")
		readbuf   = flag.Int("readbuf", 4<<10, "fleet mode: per-connection read buffer bytes")
		srcips    = flag.Int("srcips", 0, "fleet mode: rotate this many 127.0.0.x dial source IPs (0: auto for big loopback fleets, <0: off)")
		workers   = flag.Int("dialworkers", 128, "fleet mode: concurrent dialers during ramp")
	)
	flag.Parse()

	key := make([]byte, *keySize)
	for i := range key {
		key[i] = 'k'
	}
	val := make([]byte, *valSize)
	for i := range val {
		val[i] = 'v'
	}
	req := resp.AppendCommand(nil, []byte("SET"), key, val)

	if *conns > 0 {
		runFleet(fleetFlags{
			addr: *addr, conns: *conns, active: *active, rate: *rate,
			idleEvery: *idleEvery, dur: *dur, req: req,
			shards: *shards, ctick: *ctick, wheelTick: *wheelTick,
			slo: *slo, seed: *seed, inflight: *inflight, readbuf: *readbuf,
			srcips: *srcips, workers: *workers, obsAddr: *obsAddr,
			spanN: *spanN,
		})
		return
	}

	c, err := realtcp.Dial(*addr, 4096)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
	defer c.Close()

	opts := realtcp.LoadOptions{
		Rate:     *rate,
		Duration: *dur,
		Request:  req,
		Tick:     *tick,
	}
	if *toggle {
		// Repeated runs explore identically by default; -seed 0 opts into a
		// wall-clock seed for operators who want varied exploration.
		s := *seed
		if s == 0 {
			s = time.Now().UnixNano()
		}
		opts.Toggler = policy.NewToggler(policy.ThroughputUnderSLO{SLO: *slo},
			policy.DefaultTogglerConfig(), policy.BatchOff,
			rand.New(rand.NewSource(s)))
	}

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		ring := obs.NewRing(1024)
		ob := obs.NewEngineObserver(obs.NewEngineMetrics(reg), ring)
		ob.Name = "kvload"
		if opts.Toggler != nil {
			ob.Stats = opts.Toggler.Stats
		}
		opts.Observer = ob
		c.ObserveLatencies(reg.Latencies("e2e_request_latency_seconds",
			"Client-observed request latency (send to response).").Record)
		debug := obs.NewDebugServer(reg, ring)
		if *spanN > 0 {
			// Span tracing + online estimator audit: sampled completions
			// become spans stamped with the estimate current at their tick
			// (ob.Spans feeds the stamp), the auditor scores measured vs
			// predicted, and the engine consumes the verdict via opts.Audit.
			tr := span.New(span.Config{
				Seed:        uint64(*seed),
				SampleEvery: *spanN,
				Ring:        span.NewRing(1, 1024),
				Audit:       span.NewAuditor(span.AuditConfig{ExpectTail: false}),
			})
			ob.Spans = tr
			opts.Audit = tr.Auditor()
			debug.SetSpans(tr.Ring())
			var sp span.Span // read loop is one goroutine; reused scratch
			c.ObserveCompletions(func(reqID uint64, sentNs, ackNs int64) {
				if !tr.Sampled(reqID) {
					return
				}
				tr.Begin(&sp, 0, 0, reqID, sentNs)
				tr.Finish(&sp, ackNs)
			})
		}
		a, err := debug.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: obs:", err)
			os.Exit(1)
		}
		defer debug.Close()
		fmt.Printf("obs listening on %s\n", a)
	}

	rep, err := realtcp.RunLoad(c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
	fmt.Printf("sent %d requests; measured mean=%v p50=%v p99=%v max=%v (%d estimate ticks)\n",
		rep.Sent, rep.Mean.Round(time.Microsecond), rep.P50.Round(time.Microsecond),
		rep.P99.Round(time.Microsecond), rep.Max.Round(time.Microsecond), rep.Estimates)
	if *toggle {
		fmt.Printf("toggler: %d decisions, %d switches, %d explorations, final %v\n",
			rep.Toggler.Decisions, rep.Toggler.Switches, rep.Toggler.Explorations, rep.FinalMode)
	}
	fmt.Printf("pacer: %d writes (%.2f requests/write), hand-over lag mean=%v max=%v\n",
		rep.Writes, float64(rep.Sent)/float64(rep.Writes), rep.LagMean.Round(time.Microsecond), rep.LagMax.Round(time.Microsecond))
}

type fleetFlags struct {
	addr              string
	conns, active     int
	rate              float64
	idleEvery, dur    time.Duration
	req               []byte
	shards            int
	ctick, wheelTick  time.Duration
	slo               time.Duration
	seed              int64
	inflight, readbuf int
	srcips, workers   int
	obsAddr           string
	spanN             uint64
}

func runFleet(ff fleetFlags) {
	fds, _ := realtcp.RaiseNOFILE(uint64(2*ff.conns + 4096))
	if fds < uint64(ff.conns)+1024 {
		fmt.Fprintf(os.Stderr, "kvload: open-file limit %d is tight for %d connections; continuing\n", fds, ff.conns)
	}
	// Fleet spans are lifecycle-only: connections carry no estimate stamp
	// (each runs its own endpoint, ticked on shard wheels), so sampled
	// completions export as rtt slices without audit fields. The sampling
	// key folds the connection index into the per-connection FIFO reqID so
	// 1-in-N holds fleet-wide, not per connection.
	var tr *span.Tracer
	if ff.obsAddr != "" && ff.spanN > 0 {
		tr = span.New(span.Config{
			Seed:        uint64(ff.seed),
			SampleEvery: ff.spanN,
			Ring:        span.NewRing(8, 512),
		})
	}
	f, err := realtcp.NewFleet(realtcp.FleetOptions{
		Addr:         ff.addr,
		Conns:        ff.conns,
		Active:       ff.active,
		Rate:         ff.rate,
		IdleEvery:    ff.idleEvery,
		Duration:     ff.dur,
		Request:      ff.req,
		IdleRequest:  resp.Command("PING"),
		Shards:       ff.shards,
		WheelTick:    ff.wheelTick,
		Tick:         ff.ctick,
		SLO:          ff.slo,
		Seed:         ff.seed,
		MaxInflight:  ff.inflight,
		ReadBufBytes: ff.readbuf,
		SourceIPs:    ff.srcips,
		DialWorkers:  ff.workers,
		OnSpan:       fleetSpanHook(tr),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}

	if ff.obsAddr != "" {
		reg := obs.NewRegistry()
		for i := 0; i < f.Shards(); i++ {
			i := i
			l := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
			reg.GaugeFunc("e2e_fleet_sent", "Requests sent per shard.", func() float64 {
				return float64(f.ShardLive(i).Sent)
			}, l)
			reg.GaugeFunc("e2e_fleet_completed", "Responses received per shard.", func() float64 {
				return float64(f.ShardLive(i).Completed)
			}, l)
			reg.GaugeFunc("e2e_fleet_skipped", "Paced sends skipped on a full pipeline, per shard.", func() float64 {
				return float64(f.ShardLive(i).Skipped)
			}, l)
			reg.GaugeFunc("e2e_fleet_dead_conns", "Currently-dead connections per shard.", func() float64 {
				return float64(f.ShardLive(i).DeadConns)
			}, l)
			reg.GaugeFunc("e2e_fleet_wheel_armed", "Armed wheel timers per shard.", func() float64 {
				return float64(f.ShardLive(i).Wheel.Armed)
			}, l)
			reg.GaugeFunc("e2e_fleet_wheel_max_behind", "Worst tick backlog seen per shard.", func() float64 {
				return float64(f.ShardLive(i).Wheel.MaxBehind)
			}, l)
			reg.GaugeFunc("e2e_fleet_wheel_behind", "Current tick backlog per shard.", func() float64 {
				return float64(f.ShardLive(i).Wheel.Behind)
			}, l)
			reg.GaugeFunc("e2e_fleet_wheel_fired", "Wheel timers fired per shard.", func() float64 {
				return float64(f.ShardLive(i).Wheel.Fired)
			}, l)
			reg.GaugeFunc("e2e_fleet_wheel_services", "Run-queue services per shard.", func() float64 {
				return float64(f.ShardLive(i).Wheel.Services)
			}, l)
		}
		reg.GaugeFunc("e2e_fleet_sent_sum", "Requests sent, all shards.", func() float64 {
			var t uint64
			for i := 0; i < f.Shards(); i++ {
				t += f.ShardLive(i).Sent
			}
			return float64(t)
		})
		debug := obs.NewDebugServer(reg, obs.NewRing(16))
		if tr != nil {
			debug.SetSpans(tr.Ring())
		}
		a, err := debug.Start(ff.obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: obs:", err)
			os.Exit(1)
		}
		defer debug.Close()
		fmt.Printf("obs listening on %s\n", a)
	}

	fmt.Printf("fleet: %d conns (%d active @ %.0f req/s, idle heartbeat %v), %d shards, ctick=%v, nofile=%d\n",
		ff.conns, fleetActive(ff), ff.rate, ff.idleEvery, f.Shards(), ff.ctick, fds)
	rep, err := f.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}

	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	fmt.Printf("\n%-11s %7s %10s %10s %10s %10s\n", "group", "conns", "count", "p50", "p99", "p999")
	fmt.Printf("%-11s %7d %10d %10s %10s %10s\n", "controlled",
		rep.Controlled.Conns, rep.Controlled.Count, us(rep.Controlled.P50), us(rep.Controlled.P99), us(rep.Controlled.P999))
	fmt.Printf("%-11s %7d %10d %10s %10s %10s\n", "nagle",
		rep.Nagle.Conns, rep.Nagle.Count, us(rep.Nagle.P50), us(rep.Nagle.P99), us(rep.Nagle.P999))
	fmt.Printf("\nsent=%d completed=%d skipped=%d dialErrors=%d reconnects=%d dead=%d elapsed=%v\n",
		rep.Sent, rep.Completed, rep.Skipped, rep.DialErrors, rep.Reconnects, rep.DeadConns,
		rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("control: ticks=%d degraded=%d validEstimates=%d batchOnFrac=%.2f\n",
		rep.Controlled.ControlTicks+rep.Nagle.ControlTicks,
		rep.Controlled.DegradedTicks+rep.Nagle.DegradedTicks,
		rep.Controlled.ValidEstimates+rep.Nagle.ValidEstimates,
		rep.Controlled.FinalBatchOnFrac)
	var fired, services uint64
	for _, st := range rep.Shards {
		fired += st.Fired
		services += st.Services
	}
	fmt.Printf("shards: %d, wheelFired=%d services=%d maxBehindTicks=%d finalRunQueue=%d\n",
		len(rep.Shards), fired, services, rep.MaxBehindTicks, rep.FinalRunQueue)
}

// fleetSpanHook adapts a tracer to the fleet's completion feed, or nil
// when tracing is off. It runs on many read-loop goroutines at once, so
// each call uses its own stack-scratch span (the tracer never retains the
// pointer, so it does not escape).
func fleetSpanHook(tr *span.Tracer) func(conn, shard int, reqID uint64, sentNs, ackNs int64) {
	if tr == nil {
		return nil
	}
	return func(conn, shard int, reqID uint64, sentNs, ackNs int64) {
		if !tr.Sampled(uint64(conn)<<32 ^ reqID) {
			return
		}
		var sp span.Span
		tr.Begin(&sp, uint32(shard), uint32(conn), reqID, sentNs)
		tr.Finish(&sp, ackNs)
	}
}

func fleetActive(ff fleetFlags) int {
	if ff.active > 0 {
		return ff.active
	}
	a := ff.conns / 10
	if a < 1 {
		a = 1
	}
	return a
}
