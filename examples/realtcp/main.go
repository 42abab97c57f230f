// Realtcp runs the userspace-only slice of the paper on real kernel TCP
// over loopback: a mini-Redis server, a pipelined client maintaining
// create/complete counters, live Little's-law estimates, and dynamic
// TCP_NODELAY toggling — no kernel patches required.
//
// Run with: go run ./examples/realtcp
//
// Pass -obs 127.0.0.1:9090 to watch the control loop live while it runs:
// `curl 127.0.0.1:9090/metrics` for the engine counters and latency
// summaries, `curl '127.0.0.1:9090/debug/decisions?n=20'` for the last
// decision records as JSONL.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func main() {
	obsAddr := flag.String("obs", "", "serve /metrics and /debug endpoints on this address during the run")
	flag.Parse()
	// ---- server ----
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	start := time.Now()
	store := kv.NewStore(func() time.Duration { return time.Since(start) })
	srv := realtcp.NewServer(kv.NewEngine(store))
	go srv.Serve(l)
	defer srv.Close()
	fmt.Println("mini-redis on", l.Addr())

	// The shared control engine over the client's hint counters: each
	// manual Tick runs the same estimate→decision→TCP_NODELAY loop the
	// simulated experiments use, here paced by the batch cadence instead
	// of a periodic clock.
	tog := policy.NewToggler(policy.ThroughputUnderSLO{SLO: 2 * time.Millisecond},
		policy.DefaultTogglerConfig(), policy.BatchOff, rand.New(rand.NewSource(1)))
	cfg := engine.Config{Controller: tog, Initial: tog.Mode()}
	lat := &obs.Latencies{}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		ring := obs.NewRing(1024)
		ob := obs.NewEngineObserver(obs.NewEngineMetrics(reg), ring)
		ob.Name = "example-realtcp"
		ob.Stats = tog.Stats
		cfg.Observer = ob
		lat = reg.Latencies("e2e_request_latency_seconds", "Client-observed request latency.")
		debug := obs.NewDebugServer(reg, ring)
		a, err := debug.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		defer debug.Close()
		fmt.Println("obs on", a)
	}

	// ---- client with userspace counters ----
	c, err := realtcp.DialWith(l.Addr().String(), realtcp.DialOptions{MaxInflight: 1024,
		OnComplete: func(_ uint64, n int, sentNs, ackNs, _, _ int64) { lat.RecordN(time.Duration(ackNs-sentNs), uint64(n)) }})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		os.Exit(1)
	}
	ep := engine.New(cfg, c.EnginePort())

	val := make([]byte, 4096)
	wire := resp.AppendCommand(nil, []byte("SET"), []byte("bench-key-000000"), val)

	const (
		total    = 20000
		perTick  = 500
		tickGoal = 10 * time.Millisecond
	)
	fmt.Printf("issuing %d 4 KiB SETs, toggling TCP_NODELAY from live estimates...\n", total)
	for sent := 0; sent < total; sent += perTick {
		tickStart := time.Now()
		for i := 0; i < perTick; i++ {
			if err := c.Send(wire); err != nil {
				fmt.Fprintln(os.Stderr, "send:", err)
				os.Exit(1)
			}
		}
		for c.Outstanding() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		r := ep.Tick(c.Elapsed())
		if r.Estimate.Valid && sent%(perTick*8) == 0 {
			fmt.Printf("  est latency=%-10v tput=%8.0f/s mode=%v\n",
				r.Estimate.Latency.Round(time.Microsecond), r.Estimate.Throughput, r.Mode)
		}
		if d := tickGoal - time.Since(tickStart); d > 0 {
			time.Sleep(d)
		}
	}

	c.Close() // waits out the read loop: every completion is in lat
	h := lat.Snapshot()
	st := tog.Stats()
	fmt.Printf("\nmeasured: n=%d mean=%v p99=%v\n",
		h.Count(), h.Mean().Round(time.Microsecond), h.Quantile(0.99).Round(time.Microsecond))
	fmt.Printf("toggler:  %d decisions, %d switches, %d explorations, final %v\n",
		st.Decisions, st.Switches, st.Explorations, tog.Mode())
}
