//go:build !race

// Allocation gate (DESIGN.md §13) for realtcp's //e2e:hotpath functions:
// handing a run of requests over and completing it in several reads, and
// the raw socket read and write under both.
// Excluded under -race because the race runtime's shadow allocations would
// be charged to the tracked code.

package realtcp

import (
	"testing"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/resp"
)

func TestAllocGateQueueComplete(t *testing.T) {
	var n int
	c := NewClient(nullConn{closed: make(chan struct{})}, DialOptions{MaxInflight: 64,
		OnComplete: func(_ uint64, k int, _, _, _, _ int64) { n += k }})
	defer c.Close()
	const k = 16
	wire := resp.Command("PING")
	allocgate.Zero(t, 200, "Queue of 16 + Flush + complete over three reads", func() {
		if err := c.Queue(wire, k); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		// Three reads, the first two ending inside the run.
		c.complete(5)
		c.complete(5)
		c.complete(k - 10)
	})
	if n != 201*k || c.Outstanding() != 0 {
		t.Errorf("%d completions, %d outstanding after %d requests", n, c.Outstanding(), 201*k)
	}
}

// A raw write and the reads that take it back, on a loopback pair: the
// callbacks are built once per connection, so a round allocates nothing.
func TestAllocGateRawRoundTrip(t *testing.T) {
	near, far := loopbackPair(t)
	w, r := newRawIO(near), newRawIO(far)
	if w.rc == nil || r.rc == nil {
		t.Fatal("a loopback TCP connection did not take the raw path")
	}
	msg := resp.Command("SET", "key", "value")
	buf := make([]byte, 4096)
	allocgate.Zero(t, 200, "a raw write + read round", func() {
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(msg); {
			n, err := r.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	})
}
