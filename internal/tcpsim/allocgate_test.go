//go:build !race

// Allocation gates (DESIGN.md §13) for this package's //e2e:hotpath functions.
// Excluded under -race because the race runtime allocates shadow state that
// AllocsPerRun would charge to the tracked code.

package tcpsim

import (
	"testing"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

func TestAllocGateDigestFold(t *testing.T) {
	var d digest
	data := payload(16411) // a 16 KiB SET: whole words plus a 3-byte carry
	if n := testing.AllocsPerRun(200, func() {
		d.fold(data)
		d.fold(data[:5])
		_ = d.sum()
	}); n != 0 {
		t.Errorf("digest.fold allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}

// TestAllocGateSegmentPath pins the whole segment path — Send, transmit,
// wire, receive, GRO, deliver, Read, delayed and standalone ACKs, v2 metadata
// exchange — at 0 allocs/op once warmed: segments come off the free list,
// events are heap values, offset queues reuse their arrays.
func TestAllocGateSegmentPath(t *testing.T) {
	for _, gro := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Nagle, cfg.GRO, cfg.ExchangeTails = false, gro, true
		s := sim.New(1)
		ca, cb := Connect(NewStack(s, "client"), NewStack(s, "server"), netem.NewLink(s, "lnk", netem.DefaultConfig()), cfg)
		reply := payload(5)
		cb.OnReadable(func() {
			cb.Read(0)
			cb.Send(reply)
		})
		ca.OnReadable(func() { ca.Read(0) })
		wire := payload(3000) // three wire segments per request
		exchange := func() {
			ca.Send(wire)
			ca.Send(wire[:100])
			for s.Step() {
			}
		}
		for i := 0; i < 100; i++ {
			exchange() // warm: free list, event heap, offset queues, read buffers
		}
		if n := testing.AllocsPerRun(200, exchange); n != 0 {
			t.Errorf("GRO=%v: a request/reply exchange allocates %v per op, want 0 (//e2e:hotpath)", gro, n)
		}
		if ca.Stats().PureAcks == 0 || cb.Stats().StatesExchanged == 0 {
			t.Fatalf("GRO=%v: the exchange did not cover ACKs and metadata: %+v", gro, ca.Stats())
		}
	}
}
