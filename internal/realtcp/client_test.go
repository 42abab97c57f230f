package realtcp

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// completion is one call of an ObserveCompletions hook.
type completion struct {
	id        uint64
	sent, ack int64
}

// awaitDrain waits until every request handed to c has been answered.
func awaitDrain(t *testing.T, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Outstanding() > 0; time.Sleep(time.Millisecond) {
		select {
		case <-c.Done():
			t.Fatalf("client died with %d outstanding: %v", c.Outstanding(), c.readErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never completed", c.Outstanding())
		}
	}
}

func TestQueueFlushIsOneWrite(t *testing.T) {
	c, cc := countedClient(t, DialOptions{})
	var mu sync.Mutex
	var seen []completion
	c.ObserveCompletions(func(id uint64, sent, ack int64) {
		mu.Lock()
		seen = append(seen, completion{id, sent, ack})
		mu.Unlock()
	})
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
	if a := c.Estimate(); a.Departures != k {
		t.Fatalf("departures = %d, want %d", a.Departures, k)
	}
	if n := len(c.Latencies()); n != k {
		t.Fatalf("latency log holds %d, want %d", n, k)
	}
	mu.Lock()
	defer mu.Unlock()
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
	c, cc := countedClient(t, DialOptions{MaxInflight: 4})
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
	if n := len(c.Latencies()); n != 100 {
		t.Fatalf("%d completions, want 100", n)
	}
}

// scriptedClient is a client whose server is the test: what the test writes
// on srv is the reply stream. Requests are read and dropped, since a pipe's
// Write waits for its reader.
func scriptedClient(t *testing.T) (c *Client, srv net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	c = NewClient(cli, DialOptions{})
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
	c, srv := scriptedClient(t)
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
	c, srv := scriptedClient(t)
	var completions atomic.Int64
	c.ObserveLatencies(func(time.Duration) { completions.Add(1) })
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
	c, _ := countedClient(t, DialOptions{MaxInflight: 64, DiscardLatencyLog: true})
	var n, bad atomic.Int64
	var last int64 // read loop only
	c.ObserveCompletions(func(_ uint64, sent, ack int64) {
		if sent < last || ack < sent {
			bad.Add(1)
		}
		last = sent
		n.Add(1)
	})
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

func TestRunLoadBatchesWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("holding a rate needs the CPU the race detector takes")
	}
	const rate, dur = 20000, 200 * time.Millisecond
	want := rate * dur.Seconds()
	// The pacer stops at the wall-clock deadline, so one late wake-up at the
	// end costs a millisecond's requests; on a busy host, try again.
	for attempt := 1; ; attempt++ {
		c, cc := countedClient(t, DialOptions{MaxInflight: 4096})
		rep, err := RunLoad(c, LoadOptions{Rate: rate, Duration: dur, Request: resp.Command("PING"), Tick: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Writes != uint64(cc.writes.Load()) || rep.Writes == 0 || rep.Writes >= uint64(rep.Sent)/2 {
			t.Fatalf("report says %d writes for %d requests and the socket saw %d; want under half as many writes as requests",
				rep.Writes, rep.Sent, cc.writes.Load())
		}
		if rep.LagMean < 0 || rep.LagMax < rep.LagMean || rep.LagMax > dur {
			t.Fatalf("lag mean %v max %v", rep.LagMean, rep.LagMax)
		}
		if d := float64(rep.Sent) - want; d <= 0.01*want && d >= -0.01*want {
			return
		} else if attempt == 3 {
			t.Fatalf("sent %d, not within 1%% of %.0f (lag mean %v max %v)", rep.Sent, want, rep.LagMean, rep.LagMax)
		}
	}
}
