package rpclib

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

func rig(t testing.TB, handler Handler) (*sim.Sim, *Client, *Server) {
	t.Helper()
	s := sim.New(13)
	a := tcpsim.NewStack(s, "client")
	b := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	cfg := tcpsim.DefaultConfig()
	cfg.Nagle = false
	cc, sc := tcpsim.Connect(a, b, link, cfg)
	srv := NewServer(sc, handler)
	cli := NewClient(s, cc)
	return s, cli, srv
}

func echo(_ uint64, payload []byte) ([]byte, error) {
	return payload, nil
}

func TestFrameRoundTrip(t *testing.T) {
	wire := AppendFrame(nil, 42, KindResponse, []byte("hello"))
	var d Decoder
	d.Feed(wire)
	f, ok, err := d.Next()
	if err != nil || !ok {
		t.Fatalf("decode: %v %v", ok, err)
	}
	if f.ID != 42 || f.Kind != KindResponse || string(f.Payload) != "hello" {
		t.Fatalf("frame = %+v", f)
	}
	if _, ok, _ := d.Next(); ok {
		t.Fatal("phantom frame")
	}
}

func TestDecoderIncremental(t *testing.T) {
	wire := AppendFrame(nil, 7, KindRequest, bytes.Repeat([]byte("x"), 1000))
	var d Decoder
	for i := 0; i < len(wire); i += 13 {
		end := i + 13
		if end > len(wire) {
			end = len(wire)
		}
		d.Feed(wire[i:end])
		if end < len(wire) {
			if _, ok, err := d.Next(); ok || err != nil {
				t.Fatalf("premature frame at %d: %v %v", end, ok, err)
			}
		}
	}
	f, ok, err := d.Next()
	if err != nil || !ok || len(f.Payload) != 1000 {
		t.Fatalf("final decode: %+v %v %v", f, ok, err)
	}
}

func TestDecoderRejectsHugeFrame(t *testing.T) {
	var hdr [headerSize]byte
	hdr[0] = 0xFF // length ~4 GiB
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	var d Decoder
	d.Feed(hdr[:])
	if _, _, err := d.Next(); err == nil {
		t.Fatal("huge frame accepted")
	}
}

func TestDecoderCompaction(t *testing.T) {
	var d Decoder
	wire := AppendFrame(nil, 1, KindRequest, []byte("p"))
	for i := 0; i < 10000; i++ {
		d.Feed(wire)
		if _, ok, err := d.Next(); !ok || err != nil {
			t.Fatalf("iter %d", i)
		}
	}
	if cap(d.buf) > 4096 {
		t.Fatalf("decoder buffer grew to %d", cap(d.buf))
	}
}

func TestEchoCall(t *testing.T) {
	s, cli, srv := rig(t, echo)
	var got []byte
	cli.Call([]byte("ping!"), func(f Frame) { got = f.Payload })
	s.RunUntil(sim.Time(10 * time.Millisecond))
	if string(got) != "ping!" {
		t.Fatalf("echo = %q", got)
	}
	if cli.Completed() != 1 || cli.Failed() != 0 || srv.Served() != 1 {
		t.Fatalf("counters: %d/%d/%d", cli.Completed(), cli.Failed(), srv.Served())
	}
	if cli.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", cli.Outstanding())
	}
}

func TestErrorCall(t *testing.T) {
	s, cli, _ := rig(t, func(_ uint64, _ []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	var kind byte
	var msg string
	cli.Call([]byte("x"), func(f Frame) { kind, msg = f.Kind, string(f.Payload) })
	s.RunUntil(sim.Time(10 * time.Millisecond))
	if kind != KindError || msg != "boom" {
		t.Fatalf("error frame = %d %q", kind, msg)
	}
	if cli.Failed() != 1 || cli.Completed() != 0 {
		t.Fatalf("counters: completed=%d failed=%d", cli.Completed(), cli.Failed())
	}
}

func TestPipelinedCallsCompleteOutOfNothing(t *testing.T) {
	s, cli, srv := rig(t, echo)
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("call-%d", i))
		want := string(payload)
		cli.Call(payload, func(f Frame) {
			if string(f.Payload) != want {
				t.Errorf("mismatched response: %q != %q", f.Payload, want)
			}
			done++
		})
	}
	s.RunUntil(sim.Time(time.Second))
	if done != n || srv.Served() != n {
		t.Fatalf("done=%d served=%d", done, srv.Served())
	}
}

// TestCallersMayReuseBuffers: tcpsim.Conn.Send keeps its argument by
// reference until the peer reads it, but the runtime frames every call and
// reply into a slice of its own, so the contract stops here: an application
// may scribble over its payload right after Call, and a handler over its
// reply buffer on the next call, without changing the stream.
func TestCallersMayReuseBuffers(t *testing.T) {
	reply := make([]byte, 0, 64)
	s, cli, srv := rig(t, func(_ uint64, p []byte) ([]byte, error) {
		reply = append(reply[:0], p...) // one buffer for every reply
		return reply, nil
	})
	const n = 100
	payload := make([]byte, 32)
	done := 0
	for i := 0; i < n; i++ {
		copy(payload, fmt.Sprintf("call-%026d", i))
		want := string(payload)
		cli.Call(payload, func(f Frame) {
			if string(f.Payload) != want {
				t.Errorf("mismatched response: %q != %q", f.Payload, want)
			}
			done++
		})
		clear(payload)
	}
	s.RunUntil(sim.Time(time.Second))
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	c, sv := cli.conn.Stats(), srv.conn.Stats()
	if c.SentDigest != sv.ReadDigest || sv.SentDigest != c.ReadDigest {
		t.Fatalf("a slice changed between Send and the peer's Read: client %x/%x server %x/%x",
			c.SentDigest, c.ReadDigest, sv.SentDigest, sv.ReadDigest)
	}
}

// TestRuntimeHintsMeasureEndToEnd: the runtime's built-in tracker must
// yield the true call latency with zero app-side instrumentation — the
// §3.3 framework-integration claim.
func TestRuntimeHintsMeasureEndToEnd(t *testing.T) {
	s, cli, srv := rig(t, echo)
	srv.PerCall = 50 * time.Microsecond // dominate the round trip
	rng := rand.New(rand.NewSource(2))

	var issue func(i int)
	const n = 300
	issue = func(i int) {
		if i >= n {
			return
		}
		cli.Call(make([]byte, 100), nil)
		s.After(time.Duration(rng.Intn(200))*time.Microsecond, func() { issue(i + 1) })
	}
	issue(0)
	s.RunUntil(sim.Time(time.Second))
	if cli.Completed() != n {
		t.Fatalf("completed = %d", cli.Completed())
	}
	a := cli.Estimate()
	if !a.Valid || a.Departures != n {
		t.Fatalf("estimate: %+v", a)
	}
	// Every call costs at least the 50µs handler; with queueing the mean
	// must sit above that but stay bounded.
	if a.Latency < 50*time.Microsecond || a.Latency > 5*time.Millisecond {
		t.Fatalf("estimated call latency %v implausible", a.Latency)
	}
}

// TestHintsSeeClientSideQueueing: calls stuck behind a slow handler are
// outstanding end-to-end; the runtime tracker must count that waiting,
// unlike any stack-level view.
func TestHintsSeeClientSideQueueing(t *testing.T) {
	s, cli, srv := rig(t, echo)
	srv.PerCall = time.Millisecond
	for i := 0; i < 10; i++ {
		cli.Call([]byte("x"), nil)
	}
	s.RunUntil(sim.Time(100 * time.Millisecond))
	a := cli.Estimate()
	if !a.Valid {
		t.Fatal("invalid estimate")
	}
	// FIFO service at 1ms each: mean residence ≈ 5.5ms.
	if a.Latency < 3*time.Millisecond || a.Latency > 8*time.Millisecond {
		t.Fatalf("estimate %v, want ~5.5ms of head-of-line waiting", a.Latency)
	}
}

func TestServerStopsOnCorruptStream(t *testing.T) {
	s, cli, srv := rig(t, echo)
	// Bypass the client runtime and write garbage with a huge length.
	bad := make([]byte, headerSize)
	for i := 0; i < 4; i++ {
		bad[i] = 0xFF
	}
	cli.conn.Send(bad)
	s.RunUntil(sim.Time(10 * time.Millisecond))
	if srv.Served() != 0 {
		t.Fatal("server served garbage")
	}
	// Server detached; further (valid) calls go unanswered.
	cli.Call([]byte("x"), nil)
	s.RunUntil(sim.Time(20 * time.Millisecond))
	if cli.Completed() != 0 {
		t.Fatal("server answered after corrupt stream")
	}
}

func TestNilHandlerPanics(t *testing.T) {
	s := sim.New(1)
	a := tcpsim.NewStack(s, "a")
	b := tcpsim.NewStack(s, "b")
	link := netem.NewLink(s, "l", netem.Config{})
	_, sc := tcpsim.Connect(a, b, link, tcpsim.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	NewServer(sc, nil)
}
