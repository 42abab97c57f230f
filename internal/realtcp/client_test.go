package realtcp

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
)

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

// completion is one call of an OnComplete hook.
type completion struct {
	id        uint64
	sent, ack int64
}

// completionLog keeps every call of its hook, which a client runs on its
// read loop.
type completionLog struct {
	mu   sync.Mutex
	seen []completion
}

func (l *completionLog) hook(id uint64, sent, ack int64) {
	l.mu.Lock()
	l.seen = append(l.seen, completion{id, sent, ack})
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
		if err := c.Queue(wire); err != nil {
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
			if err := c.Queue(wire); err != nil {
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
	c, srv := scriptedClient(t, DialOptions{OnComplete: func(uint64, int64, int64) { completions.Add(1) }})
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
	c, _ := countedClient(t, DialOptions{MaxInflight: 64, OnComplete: func(_ uint64, sent, ack int64) {
		if sent < last || ack < sent {
			bad.Add(1)
		}
		last = sent
		n.Add(1)
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
// in-flight window holds hands over what fits, counts the rest as skipped
// and moves the schedule past them all, without blocking on the window.
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
}
