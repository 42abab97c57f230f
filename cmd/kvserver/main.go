// Command kvserver runs the mini-Redis substrate over real TCP sockets.
// It speaks RESP2 and serves SET (with EX/PX), GET, MGET and PING over one
// string keyspace, plus the no-op handshake standard Redis clients send.
//
// Usage:
//
//	kvserver -addr :6380            # TCP_NODELAY like real Redis
//	kvserver -addr :6380 -nagle     # leave Nagle batching enabled
//	kvserver -addr :6380 -obs :9090 # expose /metrics, /debug/* on :9090
//
// With -obs, `curl :9090/metrics` serves three families in Prometheus text
// format: the server-side request latency summary, the count of requests
// served and the count of open connections; sampled requests show as spans
// at /debug/spans and /debug/trace, and /debug/pprof is live.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/realtcp"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "listen address")
		nagle   = flag.Bool("nagle", false, "keep Nagle's algorithm enabled on accepted connections")
		obsAddr = flag.String("obs", "", "serve /metrics, /debug/decisions, /debug/vars and /debug/pprof on this address (empty: disabled)")
		connbuf = flag.Int("connbuf", 64<<10, "per-connection buffer size in bytes (high fan-in wants this small)")
		nofile  = flag.Uint64("nofile", 1<<20, "raise the open-file soft limit toward this before serving")
		spanN   = flag.Uint64("spansample", 64, "with -obs, trace 1-in-N served requests as spans at /debug/spans and /debug/trace (0: disabled; 1: every request)")
	)
	flag.Parse()

	fds, _ := realtcp.RaiseNOFILE(*nofile)

	// TTLs run on the monotonic clock, so a step of the wall clock (NTP,
	// suspend/resume) neither expires nor extends every key at once. Spans
	// share the timebase.
	start := time.Now()
	store := kv.NewStore(func() time.Duration { return time.Since(start) })
	srv := realtcp.NewServer(kv.NewEngine(store))
	srv.Nagle = *nagle
	srv.BufBytes = *connbuf

	var debug *obs.DebugServer
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		lat := reg.Latencies("e2e_request_latency_seconds",
			"Server-side command execution latency.")
		// served numbers the requests: request id is its count before the
		// request, so the requests-served series and the span ids agree by
		// construction.
		var served atomic.Uint64
		reg.GaugeFunc("e2e_server_conns_sum",
			"Open connections.", func() float64 {
				return float64(srv.Conns())
			})
		reg.GaugeFunc("e2e_server_requests_sum",
			"Requests served.", func() float64 {
				return float64(served.Load())
			})
		// Server-side spans: each sampled request's execution window on the
		// process timebase (parse-to-reply, like the latency summary). The
		// hook runs on many handler goroutines, so each call uses its own
		// stack-scratch span.
		var tr *span.Tracer
		if *spanN > 0 {
			tr = span.New(span.Config{
				SampleEvery: *spanN,
				Ring:        span.NewRing(1, 1024),
			})
		}
		srv.OnRequest = func(d time.Duration) {
			id := served.Add(1) - 1
			lat.Record(d)
			if tr == nil || !tr.Sampled(id) {
				return
			}
			end := time.Since(start).Nanoseconds()
			var sp span.Span
			tr.Begin(&sp, 0, 0, id, end-d.Nanoseconds())
			tr.Finish(&sp, end)
		}
		debug = obs.NewDebugServer(reg, nil)
		if tr != nil {
			debug.SetSpans(tr.Ring())
		}
		a, err := debug.Start(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kvserver: obs:", err)
			os.Exit(1)
		}
		fmt.Printf("obs listening on %s\n", a)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
	fmt.Printf("kvserver listening on %s (nagle=%v, connbuf=%d, nofile=%d)\n",
		l.Addr(), *nagle, *connbuf, fds)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Println("kvserver: shutting down")
		if debug != nil {
			debug.Close()
		}
		srv.Close()
	}()

	if err := srv.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, "kvserver:", err)
		os.Exit(1)
	}
}
