package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// sock-kvload-ctl is the paper's userspace deployment as users run it: the
// repository's own kvload on one connection, an open loop at a fixed 20 k
// req/s, with create/complete hints, the engine estimating every millisecond,
// ε-greedy TCP_NODELAY toggling, the telemetry observer, spans and the
// auditor. The rate is fixed, so CPU per request is the cost of the
// instrumented path and latency is what a user of that connection waits.
//
// Both processes idle most of the time at this rate, and a request costs
// its wake-ups. What a wake-up across CPUs costs is the hypervisor's to
// decide: left to the scheduler, identical code read 13 to 30 µs of CPU per
// request from run to run, and with kvload and kvserver on a CPU each 24 to
// 41 µs. So this workload puts kvserver on the load's CPU, beside kvload and
// the idle bench, as one machine running both: 14 µs, within a few percent.
const (
	kvloadCtl    = "sock-kvload-ctl"
	kvloadRate   = 20000
	kvloadWindow = 4096 // kvload's in-flight bound (realtcp.Dial in cmd/kvload)
	kvloadValue  = 64
	kvloadWarmup = 200 * time.Millisecond
	kvloadFamily = "e2e_request_latency_seconds"

	// The child is sampled from 5% to 95% of its run, in equal slices:
	// its start-up and its drain stay outside the window.
	windowStart, windowEnd = 0.05, 0.95
)

// kvloadArgs are kvload's flags: full is the measured configuration, plain
// keeps only the hint counters (no toggling, no telemetry plane).
func kvloadArgs(addr string, dur time.Duration, seed uint64, full bool) []string {
	args := []string{"-addr", addr, "-rate", strconv.Itoa(kvloadRate), "-value", strconv.Itoa(kvloadValue),
		"-dur", dur.String(), "-seed", strconv.FormatUint(seed, 10)}
	if full {
		args = append(args, "-toggle", "-tick", "1ms", "-obs", "127.0.0.1:0", "-spansample", "64")
	}
	return args
}

// kvloadRig is a kvserver warmed up by one short plain kvload.
type kvloadRig struct {
	server
	binDir string
}

func setupKvload(opt options, traced bool) (*kvloadRig, int64, error) {
	s, err := spawnServer(opt, traced)
	if err != nil {
		return nil, 0, err
	}
	rig := &kvloadRig{server: s, binDir: opt.binDir}
	warm, err := rig.kvload(kvloadWarmup, opt.seed, false, nil)
	if err != nil {
		_ = rig.srv.stop() // the set-up error is the one worth reporting
		return nil, 0, err
	}
	return rig, warm.Sent, nil
}

// kvload runs one kvload child against the rig to completion and returns
// its report. While it runs, during is called with the child.
func (r *kvloadRig) kvload(dur time.Duration, seed uint64, full bool, during func(*child) error) (kvloadReport, error) {
	c, err := spawn(filepath.Join(r.binDir, "kvload"), kvloadArgs(r.addr, dur, seed, full)...)
	if err != nil {
		return kvloadReport{}, err
	}
	var derr error
	if during != nil {
		derr = during(c)
	}
	if err := c.wait(dur + stopGrace); err != nil {
		return kvloadReport{}, err
	}
	rep, err := parseKvloadReport(c.output())
	return rep, errors.Join(err, derr)
}

func (r *kvloadRig) teardown(g *gates) {
	err := r.srv.stop()
	g.add(1)
	g.check(err == nil, 1, "kvserver did not shut down cleanly: %v", err)
}

// checkStored reads kvload's one key back over a fresh connection: the
// output of the workload is that the server holds the value that was set.
func checkStored(addr string, g *gates) {
	g.add(1)
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		g.fail(1, "final GET: %v", err)
		return
	}
	defer nc.Close()
	c := &loadConn{nc: nc, rbuf: make([]byte, 4096)}
	key := bytes.Repeat([]byte{'k'}, 16) // kvload's -key default
	_, err = nc.Write(appendCmd(nil, "GET", key, nil))
	if err == nil {
		err = nc.SetDeadline(time.Now().Add(ioTimeout))
	}
	if err != nil {
		g.fail(1, "final GET: %v", err)
		return
	}
	kind, body, err := c.readReply()
	g.check(err == nil && kind == '$' && bytes.Equal(body, bytes.Repeat([]byte{'v'}, kvloadValue)), 1,
		"final GET returned %c%.40q (%v), want the %d-byte value kvload set", kind, body, err, kvloadValue)
}

// sentGate requires the child to have kept its rate: what it sent is within
// 1% of rate × duration. A stall or a refused connection shows as too few.
func sentGate(sent int64, want float64, g *gates) {
	g.add(sent)
	off := math.Abs(float64(sent) - want)
	g.check(off <= 0.01*want, int64(math.Ceil(off)),
		"kvload sent %d requests, not within 1%% of the %.0f its rate asks for", sent, want)
}

// servedGate requires the server's own count to cover what kvload sent.
func servedGate(served float64, sent int64, g *gates) {
	g.add(1)
	g.check(served >= float64(sent), 1, "kvserver counted %.0f requests, kvload reported sending %d", served, sent)
}

// kvTick is the sampler's view at one slice boundary of a kvload run.
type kvTick struct {
	at               time.Time
	index            float64       // the host's speed index since the previous tick
	load, srv, bench time.Duration // CPU so far: kvload, kvserver, this process
	latSum, latCount float64       // kvload's own latency summary, from its /metrics
	srvUser, srvSys  time.Duration
}

// sampleKvload watches one full-configuration kvload from outside: CPU of
// all three processes and kvload's own /metrics at every slice boundary.
func (r *kvloadRig) sampleKvload(c *child, dur time.Duration, grabSpans *[]byte) ([]kvTick, error) {
	obsAddr, err := c.addr("obs", ioTimeout)
	if err != nil {
		return nil, err
	}
	start := time.Now() // kvload announces its listener right before it starts sending
	slices := sliceCount(dur.Seconds())
	probe := startProbe()
	defer probe.stop()
	var ticks []kvTick
	for i := 0; i <= slices; i++ {
		frac := windowStart + (windowEnd-windowStart)*float64(i)/float64(slices)
		time.Sleep(time.Until(start.Add(time.Duration(frac * float64(dur)))))
		t := kvTick{at: time.Now(), bench: cpuTime()}
		if t.load, err = onCPU(c.pid()); err != nil {
			return nil, err
		}
		if t.srv, err = onCPU(r.srv.pid()); err != nil {
			return nil, err
		}
		if t.srvUser, t.srvSys, err = procCPU(r.srv.pid()); err != nil {
			return nil, err
		}
		prom, err := scrapeMetrics(obsAddr)
		if err != nil {
			return nil, fmt.Errorf("kvload /metrics: %w", err)
		}
		t.latSum, t.latCount = prom[kvloadFamily+"_sum"], prom[kvloadFamily+"_count"]
		if i > 0 {
			t.index = probe.index(ticks[i-1].at, t.at)
		}
		ticks = append(ticks, t)
	}
	if grabSpans != nil {
		err = httpGet(obsAddr, "/debug/spans?n=1024", func(rd io.Reader) (err error) {
			*grabSpans, err = io.ReadAll(rd)
			return err
		})
	}
	return ticks, err
}

// runKvloadCtl measures the workload once: set-up (repeated), one kvload
// child for the whole window sampled at every slice boundary, the read-back,
// teardown.
func runKvloadCtl(opt options, traced bool, spans *spanLog) (sockRun, error) {
	run := sockRun{e2e: metrics{}, layer: metrics{}}
	var rig *kvloadRig
	var sent int64 // every request the kept server has been sent
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, warm, err := setupKvload(opt, traced)
		if err != nil {
			return run, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		run.g.add(warm)
		if i < setupReps-1 {
			r.teardown(&run.g)
			continue
		}
		rig, sent = r, warm
	}
	fail := func(err error) (sockRun, error) {
		run.g.add(1)
		run.g.fail(1, "%v", err)
		rig.teardown(&run.g)
		return run, err
	}

	var before serverView
	if traced {
		var err error
		if before, err = viewServer(rig.obsAddr); err != nil {
			return fail(err)
		}
	}
	dur := time.Duration(opt.seconds * float64(time.Second))
	var ticks []kvTick
	var clientSpans []byte
	rep, err := rig.kvload(dur, opt.seed, true, func(c *child) (err error) {
		grab := &clientSpans
		if !traced {
			grab = nil
		}
		ticks, err = rig.sampleKvload(c, dur, grab)
		return err
	})
	if err != nil {
		return fail(err)
	}
	sentGate(rep.Sent, kvloadRate*dur.Seconds(), &run.g)
	sent += rep.Sent
	checkStored(rig.addr, &run.g)

	if traced {
		after, err := viewServer(rig.obsAddr)
		if err != nil {
			return fail(err)
		}
		servedGate(after.prom[servedSeries], sent, &run.g)
		serverLayer(before, after, float64(rep.Sent), run.layer)
		kvloadSpans(clientSpans, before.prom[servedSeries], rig.obsAddr, spans)
	}
	rig.teardown(&run.g)

	var ms []metrics
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		n := b.latCount - a.latCount
		x := b.index
		ms = append(ms, metrics{
			"host.index":                 x,
			"req_per_s":                  n / b.at.Sub(a.at).Seconds(),
			"cpu_us_per_req":             us(b.load-a.load+b.srv-a.srv+b.bench-a.bench) / n / x,
			"latency_us":                 (b.latSum - a.latSum) / n * 1e6,
			"kvload.cpu_us_per_req.full": us(b.load-a.load) / n / x,
			"srv_us":                     us(b.srv-a.srv) / n / x,
			"bench_us":                   us(b.bench-a.bench) / n / x,
		})
	}
	run.e2e["setup_s"] = median(run.setups)
	showSlices(kvloadCtl, ms)
	medianOf(ms, run.e2e, "req_per_s", "cpu_us_per_req", "latency_us")
	medianOf(ms, run.layer, "kvload.cpu_us_per_req.full")
	hostLayer(ms, run.layer)
	first, last := ticks[0], ticks[len(ticks)-1]
	splitUserSys(median(column(ms, "srv_us")), last.srvUser-first.srvUser, last.srvSys-first.srvSys, run.layer)
	run.layer["kvload.mean_us"] = us(rep.Mean)
	run.layer["kvload.p99_us"] = us(rep.P99)
	run.layer["kvload.estimate_ticks"] = float64(rep.EstimateTicks)
	run.layer["kvload.switches"] = float64(rep.Switches)
	return run, nil
}

// taxRow measures the same load from a client with no instrumentation and
// from kvload with the counters alone, for a fifth of the window each.
func taxRow(opt options, layer metrics, g *gates) error {
	rig, _, err := setupKvload(opt, false)
	if err != nil {
		return err
	}
	defer rig.teardown(g)
	slice := time.Duration(opt.seconds / 5 * float64(time.Second))
	probe := startProbe()
	defer probe.stop()
	t0 := time.Now()
	sent, cpu, err := bareClient(rig.addr, slice)
	if err != nil {
		return err
	}
	layer["kvload.cpu_us_per_req.bare"] = us(cpu) / float64(sent) / probe.index(t0, time.Now())

	// A plain kvload announces nothing and exports nothing, so its window
	// is placed by the clock, 15% to 90% of its run, and the requests in
	// the window are that share of what it reports having sent.
	const from, to = 0.15, 0.90
	var a, b time.Duration
	var x float64
	rep, err := rig.kvload(slice, opt.seed, false, func(c *child) (err error) {
		t0 := time.Now()
		time.Sleep(time.Duration(from * float64(slice)))
		ta := time.Now()
		if a, err = onCPU(c.pid()); err != nil {
			return err
		}
		time.Sleep(time.Until(t0.Add(time.Duration(to * float64(slice)))))
		b, err = onCPU(c.pid())
		x = probe.index(ta, time.Now())
		return err
	})
	if err != nil {
		return err
	}
	layer["kvload.cpu_us_per_req.counters"] = us(b-a) / ((to - from) * float64(rep.Sent)) / x
	return nil
}

// kvloadSpans writes the last child's client spans as load.request and the
// server's as kvserver.exec. The child's request i is the server's request
// firstID+i, but the two sample different one-in-64 subsets, so only a few
// pairs share a request and get a parent.
func kvloadSpans(client []byte, firstID float64, obsAddr string, spans *spanLog) {
	base := int64(firstID)
	have := map[int64]bool{}
	err := readSpans(bytes.NewReader(client), func(x programSpan) {
		have[base+x.ReqID] = true
		spans.add(spanRec{Req: base + x.ReqID, Name: "load.request", Start: x.EnqueueNs, End: x.AckNs})
	})
	if err == nil {
		err = httpGet(obsAddr, "/debug/spans?n=4096", func(r io.Reader) error {
			return readSpans(r, func(x programSpan) {
				if x.ReqID < base {
					return
				}
				parent := ""
				if have[x.ReqID] {
					parent = "load.request"
				}
				// each process stamps on its own clock; durations
				// compare, start times across names do not
				spans.add(spanRec{Req: x.ReqID, Name: "kvserver.exec", Start: x.EnqueueNs, End: x.AckNs, Parent: parent})
			})
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: spans: %v\n", kvloadCtl, err)
	}
}

// bareClient is the bench's own client with kvload's request and kvload's
// pacing (one request every 1/rate, sleeping when ahead, inside a
// 4096-request window) and none of its instrumentation: the zero of the tax
// row.
func bareClient(addr string, dur time.Duration) (sent int64, cpu time.Duration, err error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return 0, 0, err
	}
	defer nc.Close()
	req := appendCmd(nil, "SET", bytes.Repeat([]byte{'k'}, 16), bytes.Repeat([]byte{'v'}, kvloadValue))
	c0 := cpuTime()

	// The reader counts replies until it has seen as many as the writer
	// says it sent; want stays -1 while the writer is still sending.
	var want atomic.Int64
	want.Store(-1)
	readDone := make(chan error, 1)
	window := make(chan struct{}, kvloadWindow)
	go func() {
		buf := make([]byte, 4096)
		var oks, lines int64
		for {
			if w := want.Load(); w >= 0 && lines >= w {
				if oks != w {
					readDone <- fmt.Errorf("bare client: %d of %d replies were +OK", oks, w)
					return
				}
				readDone <- nil
				return
			}
			n, err := nc.Read(buf)
			oks += int64(bytes.Count(buf[:n], []byte{'+'}))
			got := bytes.Count(buf[:n], []byte{'\n'})
			lines += int64(got)
			for ; got > 0 && len(window) > 0; got-- {
				<-window
			}
			if err != nil {
				readDone <- fmt.Errorf("bare client: %d replies read: %w", lines, err)
				return
			}
		}
	}()
	const interval = time.Second / kvloadRate
	next := time.Now()
	for deadline := next.Add(dur); time.Now().Before(deadline); {
		select {
		case window <- struct{}{}:
		case err := <-readDone: // the reader gave up; nothing will free the window
			return sent, cpuTime() - c0, err
		}
		if _, err = nc.Write(req); err != nil {
			break
		}
		sent++
		next = next.Add(interval)
		time.Sleep(time.Until(next))
	}
	// A reader parked in Read with every reply in needs one more wake-up:
	// a closing PING, whose +PONG is the last line it waits for. want is
	// stored first: a reader that saw the PONG while want still read -1
	// would park again with nothing left to arrive.
	want.Store(sent + 1)
	if err == nil {
		_, err = nc.Write([]byte("*1\r\n$4\r\nPING\r\n"))
	}
	if derr := nc.SetReadDeadline(time.Now().Add(ioTimeout)); err == nil {
		err = derr
	}
	if rerr := <-readDone; err == nil {
		err = rerr
	}
	return sent, cpuTime() - c0, err
}

// measureKvload runs the workload untraced and, when asked, traced with the
// three-way instrumentation tax row.
func measureKvload(opt options, o *outcome) error {
	built, err := buildChildren(opt)
	if err != nil {
		return err
	}
	un, err := runKvloadCtl(opt, false, nil)
	o.E2E, o.gates = un.e2e, un.g
	if err != nil || !opt.trace {
		return err
	}
	var spans spanLog
	tr, err := runKvloadCtl(opt, true, &spans)
	o.gates.merge(tr.g)
	if err != nil {
		return err
	}
	layer := overlay(un.layer, tr.layer)
	layer["kvserver.obs_tax_pct"] = 100 * (srvCPU(tr.layer) - srvCPU(un.layer)) / srvCPU(un.layer)
	layer["trace.overhead_pct"] = 100 * (tr.e2e["cpu_us_per_req"] - un.e2e["cpu_us_per_req"]) / un.e2e["cpu_us_per_req"]
	layer["build.go_build_s"] = built.Seconds()
	if err := taxRow(opt, layer, &o.gates); err != nil {
		return err
	}
	replayControl(layer)
	o.Layer = layer
	return spans.write(opt.outDir, kvloadCtl)
}
