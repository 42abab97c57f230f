package realtcp

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/resp"
)

// startServer launches a loopback server, returning its address and a
// cleanup func. Tests skip when the sandbox forbids loopback listening.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	store := kv.NewStore(func() time.Duration { return time.Duration(time.Now().UnixNano()) })
	srv := NewServer(kv.NewEngine(store))
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return l.Addr().String(), srv
}

func dialOrFail(t *testing.T, addr string, opts DialOptions) *Client {
	t.Helper()
	c, err := DialWith(addr, opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingPong(t *testing.T) {
	addr, _ := startServer(t)
	var log completionLog
	c := dialOrFail(t, addr, DialOptions{OnComplete: log.hook})
	if err := roundTrip(c, resp.Command("PING")); err != nil {
		t.Fatal(err)
	}
	// Outstanding drops before the hook runs; Close waits the read loop out.
	c.Close()
	seen := log.get()
	if len(seen) != 1 {
		t.Fatalf("completions = %d, want 1", len(seen))
	}
	if lat := time.Duration(seen[0].ack - seen[0].sent); lat <= 0 || lat > time.Second {
		t.Fatalf("latency = %v, implausible", lat)
	}
}

func TestSetGetThroughRealSockets(t *testing.T) {
	addr, _ := startServer(t)
	c := dialOrFail(t, addr, DialOptions{})
	val := make([]byte, 16384)
	if err := roundTrip(c, resp.AppendCommand(nil, []byte("SET"), []byte("k"), val)); err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(c, resp.Command("GET", "k")); err != nil {
		t.Fatal(err)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
}

func TestPipelinedLoadAndHintEstimate(t *testing.T) {
	addr, _ := startServer(t)
	var log completionLog
	c := dialOrFail(t, addr, DialOptions{OnComplete: log.hook})
	const n = 500
	wire := resp.Command("PING")
	for i := 0; i < n; i++ {
		if err := c.Send(wire); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after drain", got)
	}
	a := qstate.GetAvgs(qstate.Snapshot{}, c.tracker.Snapshot())
	if !a.Valid {
		t.Fatal("hint estimate invalid after load")
	}
	if a.Departures != n {
		t.Fatalf("departures = %d, want %d", a.Departures, n)
	}
	c.Close() // the read loop has run every hook
	seen := log.get()
	if len(seen) != n {
		t.Fatalf("completions = %d, want %d", len(seen), n)
	}
	// The hint latency must be in the same ballpark as the directly
	// measured mean (both are userspace request→response times).
	var sum time.Duration
	for _, s := range seen {
		sum += time.Duration(s.ack - s.sent)
	}
	mean := sum / time.Duration(n)
	if a.Latency < mean/4 || a.Latency > mean*4 {
		t.Fatalf("hint latency %v vs measured mean %v", a.Latency, mean)
	}
}

func TestNoDelayTogglingOnLiveConnection(t *testing.T) {
	addr, _ := startServer(t)
	c := dialOrFail(t, addr, DialOptions{})
	wire := resp.Command("PING")
	for _, mode := range []bool{false, true, false, true} {
		if err := c.SetNoDelay(mode); err != nil {
			t.Fatalf("SetNoDelay(%v): %v", mode, err)
		}
		if c.NoDelay() != mode {
			t.Fatalf("NoDelay() = %v, want %v", c.NoDelay(), mode)
		}
		for i := 0; i < 20; i++ {
			if err := c.Send(wire); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Outstanding() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c.Outstanding() != 0 {
			t.Fatalf("mode %v: requests stuck", mode)
		}
	}
}

func TestServerNagleModeConfigurable(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	store := kv.NewStore(func() time.Duration { return time.Duration(time.Now().UnixNano()) })
	srv := NewServer(kv.NewEngine(store))
	srv.Nagle = true
	go srv.Serve(l)
	defer srv.Close()
	c := dialOrFail(t, l.Addr().String(), DialOptions{})
	if err := roundTrip(c, resp.Command("PING")); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	addr, _ := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Skipf("dial unavailable: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("$garbage\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _ := nc.Read(buf)
	if n == 0 || buf[0] != '-' {
		t.Fatalf("expected error reply, got %q", buf[:n])
	}
	// The server must then close the connection.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	const clients, sets = 4, 50
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			c, err := Dial(addr, 64)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < sets; j++ {
				if err := roundTrip(c, resp.Command("SET", fmt.Sprint("ctr", id), fmt.Sprint(j))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every client's last SET is what a fresh connection reads.
	var p resp.Parser
	got := do(t, dialRaw(t, addr), &p, resp.Command("MGET", "ctr0", "ctr1", "ctr2", "ctr3"), 1)
	if want := "*4\r\n" + strings.Repeat("$2\r\n49\r\n", clients); got[0] != want {
		t.Fatalf("MGET = %q, want %q", got[0], want)
	}
}
