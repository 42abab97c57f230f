package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sockWorkload is a closed loop over real loopback sockets against a
// kvserver child: each connection writes depth requests, reads depth
// replies, checks them, and only then sends again.
type sockWorkload struct {
	name        string
	conns       int // never more than nproc: one goroutine each
	depth       int // requests per write
	setPermille int // SETs per thousand requests; the rest are GETs
	valSize     int
}

const (
	keysPerConn = 16
	poolBytes   = 1 << 20
	ioTimeout   = 20 * time.Second

	// sockWarmup is how long every connection runs its stream before the
	// measured window. It is a time, not a request count: set-up is then
	// spawn, dial and preload plus a constant, so setup_s moves when those
	// move and not with how fast the host happens to run the warm-up.
	sockWarmup = 150 * time.Millisecond
)

var sockWorkloads = []sockWorkload{
	// Smallest message, pipelined: userspace cost per request dominates.
	{name: "sock-pipe64", conns: 2, depth: 16, setPermille: 800, valSize: 64},
	// Large values both ways, one syscall pair per request.
	{name: "sock-rw16k", conns: 2, depth: 1, setPermille: 500, valSize: 16 << 10},
}

// sliceCount cuts a socket workload's window into slices of about a second,
// at least five; a metric is the median slice.
func sliceCount(seconds float64) int {
	return max(5, int(math.Round(seconds)))
}

func sockByName(name string) *sockWorkload {
	for i := range sockWorkloads {
		if sockWorkloads[i].name == name {
			return &sockWorkloads[i]
		}
	}
	return nil
}

// request is one command of the stream. Values are windows of a pool the
// seed generated, so a request costs the load generator no copying beyond
// the wire encoding, and a GET is checked against the pool byte for byte.
type request struct {
	set bool
	key int
	off int // SET: where in the pool the value starts
}

// stream yields connection conn's i-th request: a pure function of the seed.
func (w *sockWorkload) stream(seed uint64, conn int, i uint64) request {
	r := draw(seed, conn, i)
	return request{
		set: int(r%1000) < w.setPermille,
		key: int(r >> 10 % keysPerConn),
		off: int(r >> 20 % uint64(poolBytes-w.valSize)),
	}
}

// makePool is the seed's value material.
func makePool(seed uint64) []byte {
	pool := make([]byte, poolBytes)
	x := splitmix64(seed ^ 0x706f6f6c)
	for i := 0; i < len(pool); i += 8 {
		x = splitmix64(x)
		for b := 0; b < 8; b++ {
			// printable, so a protocol slip shows up readable in a dump
			pool[i+b] = 'a' + byte(x>>(8*b))%26
		}
	}
	return pool
}

func connKey(conn, k int) []byte {
	return []byte(fmt.Sprintf("bench:c%02d:k%05d", conn, k)) // 16 bytes
}

// loadConn is one closed-loop client connection. It has its own RESP reader:
// the load generator shares no code with the program it checks.
type loadConn struct {
	id   int
	w    *sockWorkload
	seed uint64
	nc   net.Conn
	pool []byte
	keys [][]byte
	last []int // per key, the pool offset of the latest SET

	next uint64 // index of the next stream request
	wbuf []byte
	rbuf []byte
	rpos int
	rend int
	want []int // per request of the batch: -1 for +OK, else the GET's expected offset

	done    atomic.Int64 // requests completed, read by the sampler
	rtts    []float64    // ns per batch, write to last reply
	reads   int64
	replies int64
	sentAt  time.Time // when the latest batch was written
	stamps  []int64   // with stamp set: how long after sentAt each reply was parsed
	stamp   bool
	g       gates
}

func dialLoad(w *sockWorkload, seed uint64, id int, addr string, pool []byte) (*loadConn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	c := &loadConn{id: id, w: w, seed: seed, nc: nc, pool: pool, rbuf: make([]byte, 128<<10), last: make([]int, keysPerConn)}
	for k := 0; k < keysPerConn; k++ {
		c.keys = append(c.keys, connKey(id, k))
	}
	return c, nil
}

// roundTrip sends reqs in one write, reads one reply each and checks it.
func (c *loadConn) roundTrip(reqs []request) error {
	c.wbuf, c.want = c.wbuf[:0], c.want[:0]
	for _, r := range reqs {
		if r.set {
			c.wbuf = appendCmd(c.wbuf, "SET", c.keys[r.key], c.pool[r.off:r.off+c.w.valSize])
			c.last[r.key] = r.off
			c.want = append(c.want, -1)
		} else {
			c.wbuf = appendCmd(c.wbuf, "GET", c.keys[r.key], nil)
			c.want = append(c.want, c.last[r.key])
		}
	}
	c.g.add(int64(len(reqs)))
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	t0 := time.Now()
	c.sentAt = t0
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.g.fail(int64(len(reqs)), "conn %d: write: %v", c.id, err)
		return err
	}
	c.stamps = c.stamps[:0]
	for i, want := range c.want {
		kind, body, err := c.readReply()
		if err != nil {
			c.g.fail(int64(len(reqs)-i), "conn %d: reply %d of %d never came: %v", c.id, i+1, len(reqs), err)
			return err
		}
		if c.stamp {
			c.stamps = append(c.stamps, int64(time.Since(t0)))
		}
		c.replies++
		switch {
		case want < 0:
			c.g.check(kind == '+' && string(body) == "OK", 1, "conn %d: SET answered %c%.40q", c.id, kind, body)
		default:
			c.g.check(kind == '$' && bytes.Equal(body, c.pool[want:want+c.w.valSize]), 1,
				"conn %d: GET returned %d bytes that are not the latest SET (%d bytes)", c.id, len(body), c.w.valSize)
		}
	}
	c.rtts = append(c.rtts, float64(time.Since(t0)))
	c.done.Add(int64(len(reqs)))
	return nil
}

// batch sends the next depth requests of the stream.
func (c *loadConn) batch(reqs []request) error {
	for i := range reqs {
		reqs[i] = c.w.stream(c.seed, c.id, c.next)
		c.next++
	}
	return c.roundTrip(reqs)
}

// allKeys is one request per key: SETs for the preload, GETs for the sweep.
func (c *loadConn) allKeys(set bool) []request {
	var reqs []request
	for k := 0; k < keysPerConn; k++ {
		off := int(draw(c.seed, c.id, 1<<62+uint64(k)) % uint64(poolBytes-c.w.valSize))
		reqs = append(reqs, request{set: set, key: k, off: off})
	}
	return reqs
}

// sweep reads every key back once the load has stopped and requires the
// connection to be drained: no reply left over.
func (c *loadConn) sweep() {
	for _, r := range c.allKeys(false) {
		if c.roundTrip([]request{r}) != nil {
			return
		}
	}
	c.g.check(c.rpos == c.rend, 1, "conn %d: %d bytes left unread after the last reply", c.id, c.rend-c.rpos)
}

func appendCmd(b []byte, cmd string, key, val []byte) []byte {
	n := 2
	if val != nil {
		n = 3
	}
	b = append(b, '*', byte('0'+n), '\r', '\n')
	for _, arg := range [][]byte{[]byte(cmd), key, val} {
		if arg == nil {
			continue
		}
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(arg)), 10)
		b = append(b, '\r', '\n')
		b = append(b, arg...)
		b = append(b, '\r', '\n')
	}
	return b
}

var errReplyTooBig = errors.New("reply larger than the read buffer")

// fill reads more bytes, first making room at the end of the buffer.
func (c *loadConn) fill() error {
	if c.rpos == c.rend {
		c.rpos, c.rend = 0, 0
	}
	if c.rend == len(c.rbuf) {
		if c.rpos == 0 {
			return errReplyTooBig
		}
		c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		c.rpos = 0
	}
	n, err := c.nc.Read(c.rbuf[c.rend:])
	c.reads++
	c.rend += n
	if n > 0 {
		return nil
	}
	return err
}

// readReply parses one RESP2 reply: its type byte and, for simple strings,
// errors, integers and bulk strings, its body ('$' with a nil body is the
// null bulk). The body aliases the read buffer until the next call.
func (c *loadConn) readReply() (kind byte, body []byte, err error) {
	line, err := c.readLine()
	if err != nil {
		return 0, nil, err
	}
	if len(line) == 0 {
		return 0, nil, errors.New("empty reply line")
	}
	kind, line = line[0], line[1:]
	if kind != '$' {
		return kind, line, nil
	}
	n, err := strconv.Atoi(string(line))
	if err != nil || n < -1 {
		return 0, nil, fmt.Errorf("bad bulk length %q", line)
	}
	if n < 0 {
		return '$', nil, nil
	}
	for c.rend-c.rpos < n+2 {
		if err := c.fill(); err != nil {
			return 0, nil, err
		}
	}
	body = c.rbuf[c.rpos : c.rpos+n]
	if c.rbuf[c.rpos+n] != '\r' || c.rbuf[c.rpos+n+1] != '\n' {
		return 0, nil, errors.New("bulk string not terminated by CRLF")
	}
	c.rpos += n + 2
	return '$', body, nil
}

func (c *loadConn) readLine() ([]byte, error) {
	from := c.rpos
	for {
		if i := bytes.IndexByte(c.rbuf[from:c.rend], '\n'); i >= 0 {
			end := from + i
			line := c.rbuf[c.rpos:end]
			c.rpos = end + 1
			if len(line) == 0 || line[len(line)-1] != '\r' {
				return nil, errors.New("reply line not terminated by CRLF")
			}
			return line[:len(line)-1], nil
		}
		scanned := c.rend - c.rpos
		if err := c.fill(); err != nil {
			return nil, err
		}
		from = c.rpos + scanned // fill may have moved the unread bytes to the front
	}
}

// sockRig is a running kvserver with its load connections, preloaded and
// warmed up: what set-up builds and the measured window uses.
type sockRig struct {
	server
	conns []*loadConn
}

// setupSock spawns the server, dials, preloads every key and runs the
// warm-up.
func setupSock(w *sockWorkload, opt options, traced bool, pool []byte) (*sockRig, error) {
	s, err := spawnServer(opt, traced)
	if err != nil {
		return nil, err
	}
	rig := &sockRig{server: s}
	fail := func(err error) (*sockRig, error) {
		rig.closeConns()
		_ = rig.srv.stop() // the set-up error is the one worth reporting
		return nil, err
	}
	for id := 0; id < w.conns; id++ {
		c, err := dialLoad(w, opt.seed, id, rig.addr, pool)
		if err != nil {
			return fail(err)
		}
		rig.conns = append(rig.conns, c)
	}
	err = rig.each(func(c *loadConn) error {
		if err := c.roundTrip(c.allKeys(true)); err != nil {
			return err
		}
		reqs := make([]request, w.depth)
		for until := time.Now().Add(sockWarmup); time.Now().Before(until); {
			if err := c.batch(reqs); err != nil {
				return err
			}
		}
		c.rtts, c.reads, c.replies = c.rtts[:0], 0, 0
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return rig, nil
}

// each runs fn on every connection at once and returns the first error.
func (r *sockRig) each(fn func(*loadConn) error) error {
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *loadConn) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *sockRig) closeConns() {
	for _, c := range r.conns {
		c.nc.Close()
	}
}

// teardown closes the connections and requires the server to exit 0 on
// SIGINT.
func (r *sockRig) teardown(g *gates) {
	r.closeConns()
	err := r.srv.stop()
	g.add(1)
	g.check(err == nil, 1, "kvserver did not shut down cleanly: %v", err)
}

func (r *sockRig) completed() int64 {
	var n int64
	for _, c := range r.conns {
		n += c.done.Load()
	}
	return n
}

// tick is the sampler's view of the system at one slice boundary.
type tick struct {
	at              moment
	done            int64
	bench, srv      time.Duration // CPU so far: this process, kvserver
	srvUser, srvSys time.Duration // tick-sampled, for the ratio only
}

func (r *sockRig) sample() (tick, error) {
	u, s, err := procCPU(r.srv.pid())
	if err != nil {
		return tick{}, err
	}
	srv, err := onCPU(r.srv.pid())
	return tick{at: now(), done: r.completed(), bench: cpuTime(), srv: srv, srvUser: u, srvSys: s}, err
}

// sockRun is what one measured window produced.
type sockRun struct {
	e2e    metrics
	layer  metrics
	g      gates
	setups []float64
}

// runSock measures one closed-loop workload: set-up (repeated, the last one
// kept), the window of load cut into slices, the final sweep, teardown.
func runSock(w *sockWorkload, opt options, traced bool, spans *spanLog) (sockRun, error) {
	run := sockRun{e2e: metrics{}, layer: metrics{}}
	pool := makePool(opt.seed)
	var rig *sockRig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := setupSock(w, opt, traced, pool)
		if err != nil {
			return run, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			for _, c := range r.conns {
				run.g.merge(c.g)
			}
			r.teardown(&run.g)
			continue
		}
		rig = r
	}

	var before serverView
	if traced {
		var err error
		if before, err = viewServer(rig.obsAddr); err != nil {
			rig.teardown(&run.g)
			return run, err
		}
		before.done = rig.completed()
	}

	probe := startProbe()
	var stop atomic.Bool
	loadErr := make(chan error, 1)
	go func() {
		loadErr <- rig.each(func(c *loadConn) error {
			reqs := make([]request, w.depth)
			for !stop.Load() {
				if err := c.batch(reqs); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	slices := sliceCount(opt.seconds)
	ticks := make([]tick, 0, slices+1)
	slice := time.Duration(opt.seconds / float64(slices) * float64(time.Second))
	start := time.Now()
	var sampleErr error
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		t, err := rig.sample()
		if err != nil {
			sampleErr = err
			break
		}
		ticks = append(ticks, t)
	}
	stop.Store(true)
	probe.stop()
	err := errors.Join(<-loadErr, sampleErr)

	if err == nil && traced {
		err = traceSock(w, rig, before, spans, &run)
	}
	if err == nil {
		err = rig.each(func(c *loadConn) error { c.sweep(); return nil })
	}
	for _, c := range rig.conns {
		run.g.merge(c.g)
	}
	rig.teardown(&run.g)
	if err != nil {
		// A broken connection is a failed gate, already counted; the
		// numbers of such a run mean nothing, so it ends here.
		return run, fmt.Errorf("load: %w", err)
	}

	var ms []metrics
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		n := float64(b.done - a.done)
		x := probe.index(a.at.at, b.at.at)
		ms = append(ms, metrics{
			"host.index":          x,
			"req_per_s":           n / b.at.since(a.at).Seconds() * x,
			"cpu_us_per_req":      us(b.bench-a.bench+b.srv-a.srv) / n / x,
			"load.cpu_us_per_req": us(b.bench-a.bench) / n / x,
			"srv_us":              us(b.srv-a.srv) / n / x,
		})
	}
	var rtts [][]float64
	var reads, replies int64
	for _, c := range rig.conns {
		rtts = append(rtts, c.rtts)
		reads += c.reads
		replies += c.replies
	}
	all := pooled(rtts...)
	run.e2e["setup_s"] = median(run.setups)
	run.e2e["latency_us"] = percentile(all, 50) / 1e3 / probe.index(ticks[0].at.at, ticks[len(ticks)-1].at.at)
	hostLayer(ms, run.layer)
	showSlices(w.name, ms)
	medianOf(ms, run.e2e, "req_per_s", "cpu_us_per_req")
	medianOf(ms, run.layer, "load.cpu_us_per_req")
	first, last := ticks[0], ticks[len(ticks)-1]
	splitUserSys(median(column(ms, "srv_us")), last.srvUser-first.srvUser, last.srvSys-first.srvSys, run.layer)
	run.layer["rtt_p50_us"] = run.e2e["latency_us"]
	run.layer["load.rtt_samples"] = float64(len(all))
	run.layer["load.rtt_p99_us"] = percentile(all, min(99, tailPercentile(len(all)))) / 1e3
	run.layer["load.rtt_p999_us"] = percentile(all, min(99.9, tailPercentile(len(all)))) / 1e3
	run.layer["load.replies_per_read"] = float64(replies) / float64(reads)
	return run, nil
}

// measureSock runs a closed-loop workload untraced and, when asked, traced.
func measureSock(w sockWorkload, opt options, o *outcome) error {
	built, err := buildChildren(opt)
	if err != nil {
		return err
	}
	un, err := runSock(&w, opt, false, nil)
	o.E2E, o.gates = un.e2e, un.g
	if err != nil || !opt.trace {
		return err
	}
	var spans spanLog
	tr, err := runSock(&w, opt, true, &spans)
	o.gates.merge(tr.g)
	if err != nil {
		return err
	}
	layer := overlay(un.layer, tr.layer)
	layer["kvserver.obs_tax_pct"] = 100 * (srvCPU(tr.layer) - srvCPU(un.layer)) / srvCPU(un.layer)
	layer["trace.overhead_pct"] = 100 * (un.e2e["req_per_s"] - tr.e2e["req_per_s"]) / un.e2e["req_per_s"]
	layer["build.go_build_s"] = built.Seconds()
	replaySock(&w, opt, layer)
	o.Layer = layer
	return spans.write(opt.outDir, w.name)
}
