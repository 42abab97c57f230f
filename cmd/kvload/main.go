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
// One connection is a fleet of one. The same driver holds tens of thousands
// of concurrent connections from one process — every connection's control
// tick, send pacing and reconnect backoff scheduled on shard timer wheels,
// no goroutine or runtime timer per connection beyond the read loop the
// netpoller parks:
//
//	kvload -addr 127.0.0.1:6380 -conns 50000 -active 5000 -dur 30s -value 64 -tick 250ms
//
// Even-indexed connections are the controlled group (with -toggle, each
// runs the ε-greedy NODELAY policy off its own estimates); odd-indexed
// connections keep classic Nagle batching as the baseline. The report
// compares the two groups' p50/p99/p999.
//
// The group table and the closing "measured" line can print different p50
// and p99 for the same completions: the table reads per-connection
// qstate.DelayHists (66 buckets, 264 B each, so 50k connections cost 13 MB),
// whose quantiles are bucket midpoints within 12.5 %; the measured line
// reads one shared metrics.Histogram (≈29.7 KB), whose quantiles are bucket
// lower bounds within 1.5625 %, with an exact mean and max.
//
// With -obs, connection 0's every engine tick lands in /metrics (tick,
// degraded and mode-flip counters, exploration and safe-mode accounting,
// estimate and request latency summaries) beside per-shard fleet counters
// and wheel health, and its last 1024 decision records are queryable as
// JSONL at /debug/decisions?n=K while the run is in flight. With
// -spansample, every connection's sampled requests become spans stamped
// with that connection's live estimate, all scored by one auditor whose
// verdict every connection's engine consumes; the report then adds an
// audit: line (spans scored, tail-scored, p99 coverage, residual EWMA).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"e2ebatch/internal/obs"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "server address")
		rate    = flag.Float64("rate", 10000, "offered load per active connection, requests/second")
		dur     = flag.Duration("dur", 5*time.Second, "run duration")
		valSize = flag.Int("value", 16384, "SET value size in bytes")
		keySize = flag.Int("key", 16, "key size in bytes")
		toggle  = flag.Bool("toggle", false, "dynamically toggle TCP_NODELAY from the estimates (controlled group)")
		tick    = flag.Duration("tick", 10*time.Millisecond, "per-connection estimate/toggle tick")
		slo     = flag.Duration("slo", 500*time.Microsecond, "latency SLO for the toggling objective")
		seed    = flag.Int64("seed", 1, "toggler exploration RNG seed; 0 draws one from the wall clock")
		obsAddr = flag.String("obs", "", "serve /metrics, /debug/decisions, /debug/vars and /debug/pprof on this address for the run (empty: disabled)")
		spanN   = flag.Uint64("spansample", 64, "with -obs, trace 1-in-N requests as spans at /debug/spans and /debug/trace, each audited against its connection's live estimate (0: disabled; 1: every request)")

		conns     = flag.Int("conns", 1, "hold this many concurrent connections")
		active    = flag.Int("active", 0, "connections sending at -rate (0: conns/10, at least 1); the rest heartbeat every -idle-every")
		idleEvery = flag.Duration("idle-every", 5*time.Second, "idle connections' heartbeat period")
		shards    = flag.Int("shards", 0, "shard count (0: min(GOMAXPROCS, conns))")
		srcips    = flag.Int("srcips", 0, "rotate this many 127.0.0.x dial source IPs (0: auto for big loopback fleets, <0: off)")
		workers   = flag.Int("dialworkers", 128, "concurrent dialers during ramp")
	)
	flag.Parse()

	s := *seed
	if s == 0 {
		// Repeated runs explore identically by default; -seed 0 opts into a
		// wall-clock seed for operators who want varied exploration.
		s = time.Now().UnixNano()
	}
	fds, _ := realtcp.RaiseNOFILE(uint64(2**conns + 4096))
	if fds < uint64(*conns)+1024 {
		fmt.Fprintf(os.Stderr, "kvload: open-file limit %d is tight for %d connections; continuing\n", fds, *conns)
	}
	opts := realtcp.FleetOptions{
		Addr: *addr, Conns: *conns, Active: *active, Rate: *rate, IdleEvery: *idleEvery, Duration: *dur,
		Request:     resp.AppendCommand(nil, []byte("SET"), bytes.Repeat([]byte{'k'}, *keySize), bytes.Repeat([]byte{'v'}, *valSize)),
		IdleRequest: resp.Command("PING"),
		Shards:      *shards, Tick: *tick, Toggle: *toggle, SLO: *slo, Seed: s,
		SourceIPs: *srcips, DialWorkers: *workers,
	}

	// Every completion lands in one latency summary: the report line's, and
	// with -obs the exported e2e_request_latency_seconds.
	lat := &obs.Latencies{}
	var reg *obs.Registry
	var debug *obs.DebugServer
	var ob *obs.EngineObserver
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		ring := obs.NewRing(1024)
		ob = obs.NewEngineObserver(obs.NewEngineMetrics(reg), ring)
		ob.Name = "kvload"
		opts.Observer = ob
		lat = reg.Latencies("e2e_request_latency_seconds",
			"Client-observed request latency (send to response).")
		debug = obs.NewDebugServer(reg, ring)
		if *spanN > 0 {
			// Span tracing + online estimator audit on every connection:
			// the fleet stamps each connection's spans with its own
			// estimate, and the auditor's verdict feeds every engine.
			opts.Spans = &span.Config{Seed: uint64(s), SampleEvery: *spanN,
				Ring: span.NewRing(min(*conns, 8), 1024), Audit: span.NewAuditor(span.AuditConfig{})}
			debug.SetSpans(opts.Spans.Ring)
		}
	}
	// Each request's response time runs from its schedule, not its
	// hand-over: one sample per request, since a run's requests were due
	// gapNs apart.
	var response obs.Latencies
	opts.OnComplete = func(_, _ int, _ uint64, n int, sentNs, ackNs, dueNs, gapNs int64) {
		lat.RecordN(time.Duration(ackNs-sentNs), uint64(n))
		for i := int64(0); i < int64(n); i++ {
			response.Record(time.Duration(ackNs - dueNs - i*gapNs))
		}
	}
	f, err := realtcp.NewFleet(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
	if *obsAddr != "" {
		if *toggle {
			ob.Stats = f.TogglerStats
		}
		fleetGauges(reg, f)
		a, err := debug.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvload: obs:", err)
			os.Exit(1)
		}
		defer debug.Close()
		fmt.Printf("obs listening on %s\n", a)
	}

	rep, err := f.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvload:", err)
		os.Exit(1)
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	fmt.Printf("fleet: %d conns (%d active @ %.0f req/s, idle heartbeat %v), %d shards, tick=%v, nofile=%d\n",
		rep.Conns, rep.Active, *rate, *idleEvery, len(rep.Shards), *tick, fds)
	fmt.Printf("\n%-11s %7s %10s %10s %10s %10s\n", "group", "conns", "count", "p50", "p99", "p999")
	fmt.Printf("%-11s %7d %10d %10s %10s %10s\n", "controlled",
		rep.Controlled.Conns, rep.Controlled.Count, us(rep.Controlled.P50), us(rep.Controlled.P99), us(rep.Controlled.P999))
	fmt.Printf("%-11s %7d %10d %10s %10s %10s\n", "nagle",
		rep.Nagle.Conns, rep.Nagle.Count, us(rep.Nagle.P50), us(rep.Nagle.P99), us(rep.Nagle.P999))
	fmt.Printf("\nsent=%d completed=%d skipped=%d dialErrors=%d reconnects=%d dead=%d elapsed=%v\n",
		rep.Sent, rep.Completed, rep.Skipped, rep.DialErrors, rep.Reconnects, rep.DeadConns,
		rep.Elapsed.Round(time.Millisecond))
	estimates := rep.Controlled.ValidEstimates + rep.Nagle.ValidEstimates
	fmt.Printf("control: ticks=%d degraded=%d validEstimates=%d batchOnFrac=%.2f\n",
		rep.Controlled.ControlTicks+rep.Nagle.ControlTicks,
		rep.Controlled.DegradedTicks+rep.Nagle.DegradedTicks, estimates, rep.Controlled.FinalBatchOnFrac)
	var fired, services uint64
	for _, st := range rep.Shards {
		fired += st.Fired
		services += st.Services
	}
	fmt.Printf("shards: %d, wheelFired=%d services=%d maxBehindTicks=%d finalRunQueue=%d\n",
		len(rep.Shards), fired, services, rep.MaxBehindTicks, rep.FinalRunQueue)
	if opts.Spans != nil {
		a := rep.Audit
		fmt.Printf("audit: spans=%d tail=%d coverage=%.3f residual=%v\n",
			a.Audited, a.TailAudited, a.Coverage, us(a.ResidualEWMA))
	}

	// The closing report, in the formats the repository benchmark parses.
	h := lat.Snapshot() // Run closed every client: each completion is in lat
	fmt.Printf("sent %d requests; measured mean=%v p50=%v p99=%v max=%v (%d estimate ticks)\n",
		rep.Sent, h.Mean().Round(time.Microsecond), h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond), h.Max().Round(time.Microsecond), estimates)
	if *toggle {
		fmt.Printf("toggler: %d decisions, %d switches, %d explorations, final batch-on share %.2f\n",
			rep.Toggler.Decisions, rep.Toggler.Switches, rep.Toggler.Explorations, rep.Controlled.FinalBatchOnFrac)
	}
	fmt.Printf("pacer: %d writes (%.2f requests/write), hand-over lag mean=%v max=%v\n",
		rep.Writes, float64(rep.Sent)/float64(rep.Writes), us(rep.LagMean), us(rep.LagMax))
	// A request's schedule-to-reply time is its hand-over lag plus its
	// hand-over-to-reply latency, so the means add exactly.
	r := response.Snapshot()
	fmt.Printf("response: mean=%v p99=%v (hand-over lag %v + service %v)\n",
		us(rep.LagMean+h.Mean()), us(r.Quantile(0.99)), us(rep.LagMean), us(h.Mean()))
}

// fleetGauges exports the fleet's live per-shard counters and wheel health,
// rolled up at scrape time.
func fleetGauges(reg *obs.Registry, f *realtcp.Fleet) {
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
}
