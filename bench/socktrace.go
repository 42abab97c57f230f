package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// epoch is the zero of every wall-clock span this process records.
var epoch = time.Now()

// serverView is what a kvserver started with -obs says about itself.
type serverView struct {
	mem  memStats
	prom map[string]float64
	done int64 // requests the load connections had completed at the time
}

func viewServer(obsAddr string) (serverView, error) {
	var v serverView
	var err error
	if v.prom, err = scrapeMetrics(obsAddr); err != nil {
		return v, fmt.Errorf("kvserver /metrics: %w", err)
	}
	if v.mem, err = scrapeMemStats(obsAddr); err != nil {
		return v, fmt.Errorf("kvserver /debug/pprof/allocs: %w", err)
	}
	return v, nil
}

// promQuantile finds family{...quantile="q"...}.
func promQuantile(prom map[string]float64, family, q string) float64 {
	for series, v := range prom {
		if strings.HasPrefix(series, family+"{") && strings.Contains(series, `quantile="`+q+`"`) {
			return v
		}
	}
	return 0
}

const (
	servedSeries  = "e2e_server_requests_sum"
	execFamily    = "e2e_request_latency_seconds"
	captureTarget = 8192 // requests of the span capture phase
)

// serverLayer turns two views of the server into its per-request metrics
// over the interval between them, during which the clients sent reqs.
func serverLayer(before, after serverView, reqs float64, into metrics) {
	into["kvserver.alloc_bytes_per_req"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / reqs
	into["kvserver.allocs_per_req"] = float64(after.mem.Mallocs-before.mem.Mallocs) / reqs
	cycles := float64(after.mem.NumGC - before.mem.NumGC)
	into["kvserver.gc_cycles"] = cycles
	into["kvserver.gc_pause_ms"] = cycles * after.mem.PauseMeanNs / 1e6
	into["kvserver.max_rss_mb"] = float64(after.mem.MaxRSS) / (1 << 20)
	n := after.prom[execFamily+"_count"] - before.prom[execFamily+"_count"]
	if n > 0 {
		into["kvserver.exec_mean_us"] = (after.prom[execFamily+"_sum"] - before.prom[execFamily+"_sum"]) / n * 1e6
	}
	into["kvserver.exec_p99_us"] = promQuantile(after.prom, execFamily, "0.99") * 1e6
}

// traceSock is the traced run's extra work once the load has stopped: the
// server's own account of the window, checked against the clients', and a
// capture phase that pairs client spans with the server's.
func traceSock(w *sockWorkload, rig *sockRig, before serverView, spans *spanLog, run *sockRun) error {
	after, err := viewServer(rig.obsAddr)
	if err != nil {
		return err
	}
	after.done = rig.completed()
	sent := float64(after.done - before.done)
	served := after.prom[servedSeries] - before.prom[servedSeries]
	run.g.add(1)
	run.g.check(served == sent, 1, "kvserver counted %.0f requests over the window, the clients sent %.0f", served, sent)
	serverLayer(before, after, sent, run.layer)

	// The server numbers its spans with one process-wide sequence, so a
	// client request can be paired with its server span only while one
	// connection is sending: connection 0 alone sends the next requests
	// of its stream, and request j of the phase is server request
	// firstID+j.
	c := rig.conns[0]
	firstID := int64(after.prom[servedSeries])
	type sent1 struct{ start, end int64 }
	var captured []sent1
	c.stamp = true
	reqs := make([]request, w.depth)
	for len(captured) < captureTarget {
		if err := c.batch(reqs); err != nil {
			return err
		}
		t0 := c.sentAt.Sub(epoch).Nanoseconds()
		for _, d := range c.stamps {
			captured = append(captured, sent1{t0, t0 + d})
		}
	}
	c.stamp = false

	var srv []programSpan
	err = httpGet(rig.obsAddr, "/debug/spans?n=4096", func(r io.Reader) error {
		return readSpans(r, func(sp programSpan) {
			if k := sp.ReqID - firstID; k >= 0 && k < int64(len(captured)) {
				srv = append(srv, sp)
			}
		})
	})
	if err != nil {
		return err
	}
	// The server's clock starts at its own start-up. Its offset from
	// ours is taken so that, in the median, a server span sits in the
	// middle of the client span that caused it.
	var offsets []float64
	for _, sp := range srv {
		p := captured[sp.ReqID-firstID]
		offsets = append(offsets, float64(p.start+p.end)/2-float64(sp.EnqueueNs+sp.AckNs)/2)
	}
	shift := int64(median(offsets))
	for j, p := range captured {
		spans.add(spanRec{Req: firstID + int64(j), Name: "load.request", Start: p.start, End: p.end})
	}
	var self []float64
	for _, sp := range srv {
		p := captured[sp.ReqID-firstID]
		spans.add(spanRec{Req: sp.ReqID, Name: "kvserver.exec", Start: sp.EnqueueNs + shift, End: sp.AckNs + shift, Parent: "load.request"})
		self = append(self, float64((p.end-p.start)-(sp.AckNs-sp.EnqueueNs)))
	}
	run.g.add(1)
	run.g.check(len(srv) > 0, 1, "kvserver /debug/spans held no span of the %d captured requests", len(captured))
	run.layer["load.self_us"] = median(self) / 1e3
	fmt.Fprintf(os.Stderr, "bench: %s: paired %d server spans with %d captured requests\n", w.name, len(srv), len(captured))
	return nil
}
