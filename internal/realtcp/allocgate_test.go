//go:build !race

// Allocation gate (DESIGN.md §13) for the client's //e2e:hotpath functions:
// handing a request over and completing a batch of replies. Excluded under
// -race because the race runtime's shadow allocations would be charged to
// the tracked code.

package realtcp

import (
	"io"
	"net"
	"testing"

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

func TestAllocGateQueueComplete(t *testing.T) {
	var n int
	c := NewClient(nullConn{closed: make(chan struct{})}, DialOptions{MaxInflight: 64,
		OnComplete: func(uint64, int64, int64) { n++ }})
	defer c.Close()
	const k = 16
	wire := resp.Command("PING")
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < k; i++ {
			if err := c.Queue(wire); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c.complete(k)
	})
	if allocs != 0 {
		t.Errorf("Queue ×%d + Flush + complete allocates %v per op, want 0 (//e2e:hotpath)", k, allocs)
	}
	if n != 201*k || c.Outstanding() != 0 {
		t.Errorf("%d completions, %d outstanding after %d requests", n, c.Outstanding(), 201*k)
	}
}
