package realtcp

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
)

// nullConn takes every Write and never has anything to read, so the read
// loop stays parked and the test is the only goroutine completing requests.
type nullConn struct {
	net.Conn
	closed chan struct{}
}

func (n nullConn) Read([]byte) (int, error)    { <-n.closed; return 0, io.EOF }
func (n nullConn) Write(p []byte) (int, error) { return len(p), nil }
func (n nullConn) Close() error                { close(n.closed); return nil }

// countConn counts the Writes that reach the socket and their bytes.
type countConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// countedClient is a client on a counted connection to the test server.
func countedClient(t *testing.T, opts DialOptions) (*Client, *countConn) {
	t.Helper()
	addr, _ := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: nc}
	c := NewClient(cc, opts)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// completion is one request of a run an OnComplete hook received, with
// the time it was due.
type completion struct {
	id             uint64
	sent, ack, due int64
}

// completionLog keeps every request of every call of its hook, which a
// client runs on its read loop.
type completionLog struct {
	mu   sync.Mutex
	seen []completion
}

func (l *completionLog) hook(first uint64, n int, sent, ack, due, gap int64) {
	l.mu.Lock()
	for i := int64(0); i < int64(n); i++ {
		l.seen = append(l.seen, completion{first + uint64(i), sent, ack, due + i*gap})
	}
	l.mu.Unlock()
}

func (l *completionLog) get() []completion {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]completion(nil), l.seen...)
}

// drained waits until every request handed to c has been answered.
func drained(c *Client) error {
	for deadline := time.Now().Add(5 * time.Second); c.Outstanding() > 0; time.Sleep(100 * time.Microsecond) {
		select {
		case <-c.Done():
			return fmt.Errorf("client died with %d outstanding: %v", c.Outstanding(), c.readErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d requests never completed", c.Outstanding())
		}
	}
	return nil
}

// roundTrip sends cmd and waits until it and every request before it have
// been answered.
func roundTrip(c *Client, cmd []byte) error {
	if err := c.Send(cmd); err != nil {
		return err
	}
	return drained(c)
}

// awaitDrain waits until every request handed to c has been answered, then
// closes c. Outstanding drops before the read loop calls the hook, and
// Close waits the read loop out: every completion has reached the hook.
func awaitDrain(t *testing.T, c *Client) {
	t.Helper()
	if err := drained(c); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestQueueFlushIsOneWrite(t *testing.T) {
	var log completionLog
	c, cc := countedClient(t, DialOptions{OnComplete: log.hook})
	const k = 37
	wire := resp.Command("PING")
	for i := 0; i < k; i++ {
		if err := c.Queue(wire, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.writes.Load(); got != 0 {
		t.Fatalf("Queue alone wrote %d times", got)
	}
	if got := c.Outstanding(); got != k {
		t.Fatalf("outstanding = %d after %d Queue calls: the hint is taken at hand-over", got, k)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if w, b := cc.writes.Load(), cc.bytes.Load(); w != 1 || b != int64(k*len(wire)) {
		t.Fatalf("Flush made %d writes of %d bytes in all, want 1 write of %d", w, b, k*len(wire))
	}
	if err := c.Flush(); err != nil || cc.writes.Load() != 1 {
		t.Fatalf("Flush with nothing queued: err %v, %d writes", err, cc.writes.Load())
	}
	awaitDrain(t, c)
	if a := qstate.GetAvgs(qstate.Snapshot{}, c.tracker.Snapshot()); a.Departures != k {
		t.Fatalf("departures = %d, want %d", a.Departures, k)
	}
	seen := log.get()
	if len(seen) != k {
		t.Fatalf("%d completions observed, want %d", len(seen), k)
	}
	for i, s := range seen {
		if s.id != uint64(i) || s.ack < s.sent || (i > 0 && s.sent < seen[i-1].sent) {
			t.Fatalf("completion %d = %+v after %+v: not FIFO", i, s, seen[max(i-1, 0)])
		}
	}
}

func TestQueueOnFullWindowFlushes(t *testing.T) {
	var log completionLog
	c, cc := countedClient(t, DialOptions{MaxInflight: 4, OnComplete: log.hook})
	wire := resp.Command("PING")
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if err := c.Queue(wire, 1); err != nil {
				done <- err
				return
			}
		}
		done <- c.Flush()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Queue deadlocked on a full window with %d outstanding after %d writes", c.Outstanding(), cc.writes.Load())
	}
	awaitDrain(t, c)
	if n := len(log.get()); n != 100 {
		t.Fatalf("%d completions, want 100", n)
	}
}

// scriptedClient is a client whose server is the test: what the test writes
// on srv is the reply stream. Requests are read and dropped, since a pipe's
// Write waits for its reader.
func scriptedClient(t *testing.T, opts DialOptions) (c *Client, srv net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	c = NewClient(cli, opts)
	t.Cleanup(func() { c.Close(); srv.Close() })
	go func() {
		buf := make([]byte, 512)
		for {
			if _, err := srv.Read(buf); err != nil {
				return
			}
		}
	}()
	return c, srv
}

// failsWith sends n requests, answers them with reply, and requires the
// client to die of want.
func failsWith(t *testing.T, n int, reply, want string) {
	t.Helper()
	c, srv := scriptedClient(t, DialOptions{})
	for i := 0; i < n; i++ {
		if err := c.Send(resp.Command("PING")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Write([]byte(reply)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("client survived %q", reply)
	}
	if c.readErr == nil || !strings.Contains(c.readErr.Error(), want) {
		t.Fatalf("client failed with %v, want %q", c.readErr, want)
	}
}

// Both checks of the reply stream survive the batch pass: two replies in one
// read to one request, and a reply that is not RESP behind one that is.
func TestUnsolicitedReplyFailsClient(t *testing.T) {
	failsWith(t, 0, "+OK\r\n", "response without pending request")
	failsWith(t, 1, "+OK\r\n+OK\r\n", "response without pending request")
}

func TestCorruptReplyFailsClient(t *testing.T) {
	failsWith(t, 2, "+OK\r\n$abc\r\n", "corrupt response stream")
}

func TestSplitReplyCompletesOnce(t *testing.T) {
	var completions atomic.Int64
	c, srv := scriptedClient(t, DialOptions{OnComplete: func(_ uint64, n int, _, _, _, _ int64) { completions.Add(int64(n)) }})
	if err := c.Send(resp.Command("GET", "k")); err != nil {
		t.Fatal(err)
	}
	// A pipe's Write returns once the read loop has taken the bytes.
	if _, err := srv.Write([]byte("$5\r\nhe")); err != nil {
		t.Fatal(err)
	}
	if n, o := completions.Load(), c.Outstanding(); n != 0 || o != 1 {
		t.Fatalf("after half a reply: %d completions, %d outstanding", n, o)
	}
	if _, err := srv.Write([]byte("llo\r\n")); err != nil {
		t.Fatal(err)
	}
	awaitDrain(t, c)
	if n := completions.Load(); n != 1 {
		t.Fatalf("%d completions of one split reply", n)
	}
}

// TestConcurrentSendPairsStamps pins the send order: with stamp and bytes
// entering their queues under one lock, a reply can never be paired with
// another goroutine's stamp, so completions come in stamp order and no
// latency is negative. Run under -race.
func TestConcurrentSendPairsStamps(t *testing.T) {
	var n, bad atomic.Int64
	var last int64 // read loop only
	c, _ := countedClient(t, DialOptions{MaxInflight: 64, OnComplete: func(_ uint64, k int, sent, ack, _, _ int64) {
		if sent < last || ack < sent {
			bad.Add(1)
		}
		last = sent
		n.Add(int64(k))
	}})
	const senders, each = 8, 500
	wire := resp.Command("PING")
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Send(wire); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	awaitDrain(t, c)
	if n.Load() != senders*each || bad.Load() != 0 {
		t.Fatalf("%d completions (want %d), %d out of stamp order or negative", n.Load(), senders*each, bad.Load())
	}
}

// TestPacerSkipsOnFullWindow: a fire that finds more requests due than the
// in-flight window holds hands over what fits, with their schedule, counts
// the rest as skipped and moves the schedule past them all, without
// blocking on the window.
func TestPacerSkipsOnFullWindow(t *testing.T) {
	c, _ := scriptedClient(t, DialOptions{MaxInflight: 4}) // no reply ever comes
	p := &pacer{c: c, req: resp.Command("PING"), interval: time.Millisecond,
		sent: new(atomic.Uint64), skipped: new(atomic.Uint64)}
	now := time.Hour
	p.next = now - 9*time.Millisecond - time.Millisecond/2 // ten requests due
	p.end = now + time.Hour
	if over, err := p.fire(now); over || err != nil {
		t.Fatalf("fire = over %v, err %v", over, err)
	}
	if s, k := p.sent.Load(), p.skipped.Load(); s != 4 || k != 6 || p.writes != 1 || p.next <= now {
		t.Fatalf("sent %d, skipped %d in %d writes, next due %v after now %v; want 4, 6, one write and a schedule past now",
			s, k, p.writes, p.next, now)
	}
	// The run keeps the schedule of the four handed over: the first was due
	// 9.5 ms before the fire, the rest a millisecond apart.
	if r := c.runs[0]; r.sentNs-r.dueNs != int64(9*time.Millisecond+time.Millisecond/2) || r.gapNs != int64(time.Millisecond) {
		t.Fatalf("run stamped %d, first due %d, gap %d; want due 9.5ms before the stamp, 1ms apart", r.sentNs, r.dueNs, r.gapNs)
	}
}

// TestRunsPairWithTheirStamps is the run-pairing property: runs of random
// size from one goroutine and single Sends from two others, answered in
// chunks cut at random byte offsets (so reads end inside replies and inside
// runs), complete every request exactly once, in id order from 0, each
// with the stamp of the Queue call that handed it over and its own place in
// that run's schedule.
func TestRunsPairWithTheirStamps(t *testing.T) {
	const window = 16
	cli, srv := net.Pipe()
	srv.SetDeadline(time.Now().Add(10 * time.Second))
	var mu sync.Mutex
	type runStamp struct {
		n             int
		before, after int64
		sent          int64 // the stamp its completions reported; -1 until one has
		lag, gap      int64 // its schedule: the first due lag before the stamp
	}
	runs := map[int]*runStamp{}
	var byID []int // the run of each request id, in the order the server read them
	var got []completion
	c := NewClient(cli, DialOptions{MaxInflight: window, OnComplete: func(first uint64, n int, sent, ack, due, gap int64) {
		mu.Lock()
		for i := int64(0); i < int64(n); i++ {
			got = append(got, completion{first + uint64(i), sent, ack, due + i*gap})
		}
		mu.Unlock()
	}})
	t.Cleanup(func() { c.Close(); srv.Close() })

	// The server: each request names its run; replies go back in chunks of
	// random length, so the client's reads end at random offsets.
	go func() {
		rng := rand.New(rand.NewSource(7))
		var p resp.Parser
		var args [][]byte
		var out []byte
		for {
			n, err := srv.Read(p.Space(4096))
			p.Commit(n)
			if err != nil {
				return
			}
			for {
				var ok bool
				if args, ok, err = p.NextCommand(args[:0]); err != nil || !ok {
					break
				}
				r, _ := strconv.Atoi(string(args[1]))
				mu.Lock()
				byID = append(byID, r)
				mu.Unlock()
				out = append(out, "+OK\r\n"...)
			}
			for len(out) > 0 {
				k := 1 + rng.Intn(len(out))
				if _, err := srv.Write(out[:k]); err != nil {
					return
				}
				out = out[k:]
			}
			out = out[:0]
		}
	}()

	var next atomic.Int64 // run names
	queue := func(n int, send bool) error {
		r := int(next.Add(1))
		cmd := resp.Command("PING", strconv.Itoa(r))
		rs := &runStamp{n: n, sent: -1, before: int64(c.Elapsed())}
		var err error
		if send {
			err = c.Send(cmd)
		} else {
			rs.lag, rs.gap = int64(r)*1000, int64(r%7)*100
			err = c.queueLate(cmd, n, time.Duration(rs.lag), time.Duration(rs.gap))
		}
		rs.after = int64(c.Elapsed())
		mu.Lock()
		runs[r] = rs
		mu.Unlock()
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			if err := queue(1+rng.Intn(window), false); err != nil {
				errs <- err
				return
			}
			if rng.Intn(3) == 0 { // sometimes several runs share a write
				continue
			}
			if err := c.Flush(); err != nil {
				errs <- err
				return
			}
		}
		errs <- c.Flush()
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := queue(1, true); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	awaitDrain(t, c)

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, rs := range runs {
		total += rs.n
	}
	if len(got) != total || len(byID) != total {
		t.Fatalf("%d completions and %d requests served, want %d", len(got), len(byID), total)
	}
	counted := map[int]int{}
	for i, g := range got {
		if g.id != uint64(i) {
			t.Fatalf("completion %d has id %d: ids not contiguous from 0", i, g.id)
		}
		r := byID[i]
		rs := runs[r]
		if rs.sent == -1 {
			rs.sent = g.sent
		}
		if g.sent != rs.sent || g.sent < rs.before || g.sent > rs.after || g.ack < g.sent {
			t.Fatalf("request %d of run %d stamped %d, acked %d; its run was handed over in [%d, %d] and stamped %d",
				g.id, r, g.sent, g.ack, rs.before, rs.after, rs.sent)
		}
		if want := rs.sent - rs.lag + int64(counted[r])*rs.gap; g.due != want {
			t.Fatalf("request %d (#%d of run %d) was due at %d, want %d", g.id, counted[r], r, g.due, want)
		}
		counted[r]++
	}
	for r, rs := range runs {
		if counted[r] != rs.n {
			t.Fatalf("run %d of %d requests completed %d times", r, rs.n, counted[r])
		}
	}
	if o := c.Outstanding(); o != 0 {
		t.Fatalf("%d outstanding after the drain", o)
	}
}

// A run the window can never hold fails at once instead of waiting forever.
func TestQueueRejectsRunOverWindow(t *testing.T) {
	c, _ := scriptedClient(t, DialOptions{MaxInflight: 4}) // no reply ever comes
	done := make(chan error, 1)
	go func() { done <- c.Queue(resp.Command("PING"), 5) }()
	select {
	case err := <-done:
		if err == nil || c.Outstanding() != 0 {
			t.Fatalf("Queue of 5 on a window of 4: err %v, %d outstanding", err, c.Outstanding())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Queue of a run over MaxInflight blocked")
	}
	if err := c.Queue(resp.Command("PING"), 4); err != nil || c.Outstanding() != 4 {
		t.Fatalf("Queue of a full window: err %v, %d outstanding", err, c.Outstanding())
	}
}

// noDelayConn counts SetNoDelay calls and fails them with err.
type noDelayConn struct {
	nullConn
	calls int
	err   error
}

func (n *noDelayConn) SetNoDelay(bool) error { n.calls++; return n.err }

// fixedMode is a controller that always decides the same mode.
type fixedMode policy.Mode

func (m fixedMode) Observe(time.Duration, float64, bool) policy.Mode { return policy.Mode(m) }
func (m fixedMode) ObserveDegraded() policy.Mode                     { return policy.Mode(m) }

// An engine applies its mode every tick; the socket hears about it only
// when the mode changes, and a failing set is retried, and counted, every
// tick.
func TestTicksSetNoDelayOnChangeOnly(t *testing.T) {
	for _, m := range []policy.Mode{policy.BatchOff, policy.BatchOn} {
		nc := &noDelayConn{nullConn: nullConn{closed: make(chan struct{})}}
		c := NewClient(nc, DialOptions{})
		ep := engine.New(engine.Config{Controller: fixedMode(m), Initial: m}, c.EnginePort())
		for i := 0; i < 1000; i++ {
			ep.Tick(c.Elapsed())
		}
		c.Close()
		if nc.calls > 1 || ep.Stats().ModeErrors != 0 {
			t.Fatalf("%v for 1000 ticks: %d SetNoDelay calls, %d mode errors; want at most one call",
				m, nc.calls, ep.Stats().ModeErrors)
		}
	}
	nc := &noDelayConn{nullConn: nullConn{closed: make(chan struct{})}, err: io.ErrClosedPipe}
	c := NewClient(nc, DialOptions{})
	defer c.Close()
	ep := engine.New(engine.Config{Controller: fixedMode(policy.BatchOn), Initial: policy.BatchOn,
		ModeErrorLimit: 3}, c.EnginePort())
	for i := 0; i < 10; i++ {
		ep.Tick(c.Elapsed())
	}
	if st := ep.Stats(); nc.calls != 11 || st.ModeErrors != 11 || st.DegradedTicks == 0 || !c.NoDelay() {
		t.Fatalf("failing set over 10 ticks: %d calls, %d mode errors, %d degraded ticks, NoDelay %v; want 11, 11, some, true",
			nc.calls, st.ModeErrors, st.DegradedTicks, c.NoDelay())
	}
}
