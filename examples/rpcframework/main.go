// Rpcframework shows the paper's §3.3 endgame: a request-response RPC
// runtime (think gRPC/Thrift) with the create/complete hint API built into
// the library, so every application using it gets accurate end-to-end
// performance estimation — and estimate-driven batching — for free.
//
// Run with: go run ./examples/rpcframework
//
// Pass -obs 127.0.0.1:9090 to export the control loop's telemetry: the
// simulated run completes, then the process stays up serving /metrics,
// /debug/decisions and /debug/pprof until interrupted. Attaching the
// observer changes nothing in the run's output — the decision stream is a
// read-only export seam.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/rpclib"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

func main() {
	obsAddr := flag.String("obs", "", "serve /metrics and /debug endpoints on this address after the run")
	flag.Parse()

	s := sim.New(42)
	cliHost := tcpsim.NewStack(s, "client")
	srvHost := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "wire", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	cfg := tcpsim.DefaultConfig()
	cfg.Nagle = false
	cc, sc := tcpsim.Connect(cliHost, srvHost, link, cfg)

	// A tiny "service": reverse the payload. The handler cost emulates
	// real work.
	srv := rpclib.NewServer(sc, func(_ uint64, payload []byte) ([]byte, error) {
		out := make([]byte, len(payload))
		for i, b := range payload {
			out[len(payload)-1-i] = b
		}
		return out, nil
	})
	srv.PerCall = 12 * time.Microsecond

	cli := rpclib.NewClient(s, cc)
	cli.PerCall = 2 * time.Microsecond

	// The batching policy consumes the runtime's own estimates: one
	// StartControl call attaches the shared engine loop (the same
	// estimate→decision→apply tick the simulated and real-TCP harnesses
	// run) to this client.
	tog := policy.NewToggler(policy.ThroughputUnderSLO{SLO: 300 * time.Microsecond},
		policy.DefaultTogglerConfig(), policy.BatchOff, s.Rand())
	var (
		reg  *obs.Registry
		ring *obs.Ring
		ob   engine.Observer
	)
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		ring = obs.NewRing(1024)
		eob := obs.NewEngineObserver(obs.NewEngineMetrics(reg), ring)
		eob.Name = "example-rpc"
		eob.Stats = tog.Stats
		ob = eob
	}
	cli.StartControlObserved(tog, time.Millisecond, 64<<10, ob)

	// Open-loop call stream: ramp the rate up mid-run.
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 8192)
	var issue func()
	rate := 20000.0
	s.At(sim.Time(150*time.Millisecond), func() { rate = 65000 })
	issue = func() {
		cli.Call(payload, nil)
		gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		if s.Now() < sim.Time(400*time.Millisecond) {
			s.After(gap, issue)
		}
	}
	s.After(time.Millisecond, issue)

	// Report every 50ms of virtual time.
	fmt.Println("RPC service with library-level hints; load ramps 20k -> 65k calls/s at t=150ms")
	fmt.Printf("%8s %12s %12s %10s\n", "t", "est latency", "calls/s", "mode")
	done := uint64(0)
	prev := cli.Tracker().Snapshot()
	sim.NewTicker(s, 50*time.Millisecond, func(now sim.Time) {
		complete := cli.Completed()
		rate := float64(complete-done) / 0.05
		done = complete
		snap := cli.Tracker().Snapshot()
		a := qstate.GetAvgs(prev, snap)
		prev = snap
		fmt.Printf("%8v %12v %12.0f %10v\n",
			now.Duration(), a.Latency.Round(time.Microsecond), rate, tog.Mode())
	})
	s.RunUntil(sim.Time(450 * time.Millisecond))

	fmt.Printf("\ntotal: %d calls completed, %d failed; toggler switched %d times\n",
		cli.Completed(), cli.Failed(), tog.Stats().Switches)
	fmt.Println("(this service meets its SLO without batching even at the high rate,")
	fmt.Println(" so the policy correctly stays in batch-off — estimates preventing a")
	fmt.Println(" pointless mode flip is as much the point as triggering a needed one)")

	if reg != nil {
		debug := obs.NewDebugServer(reg, ring)
		a, err := debug.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		fmt.Printf("\nobs serving the run's telemetry on %s — ctrl-C to exit\n", a)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		debug.Close()
	}
}
