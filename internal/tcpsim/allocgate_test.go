//go:build !race

// Allocation gates (DESIGN.md §13) for this package's //e2e:hotpath functions.
// Excluded under -race because the race runtime allocates shadow state that
// allocgate.Zero would charge to the tracked code.

package tcpsim

import (
	"fmt"
	"testing"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
)

func TestAllocGateDigestFold(t *testing.T) {
	var d digest
	data := payload(16411) // a 16 KiB SET: whole words plus a 3-byte carry
	allocgate.Zero(t, 200, "digest.fold", func() {
		d.fold(data)
		d.fold(data[:5])
		_ = d.sum()
	})
}

// TestAllocGateSegmentPath pins the whole segment path — Send, transmit,
// wire, receive, GRO, deliver, Read, delayed and standalone ACKs, v2 metadata
// exchange — at 0 allocations once warmed: segments come off the free list,
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
		allocgate.Zero(t, 200, fmt.Sprintf("a request/reply exchange (GRO=%v)", gro), exchange)
		if ca.Stats().PureAcks == 0 || cb.Stats().StatesExchanged == 0 {
			t.Fatalf("GRO=%v: the exchange did not cover ACKs and metadata: %+v", gro, ca.Stats())
		}
	}
}

// TestAllocGateReadInto pins a simulated request's receive side at 0
// allocations over 200 warmed requests: the server's ReadInto straight into
// its parser's free tail, parse, execute and reply, and the client's ReadInto
// into a parser of its own. A 16 KiB GET's reply is built in a buffer whose
// earlier reply the client has read to the end.
func TestAllocGateReadInto(t *testing.T) {
	key := []byte("key0000000000000")
	for _, c := range []struct {
		name       string
		setup, req []byte
	}{
		{"a SET read with ReadInto at both ends", nil, resp.AppendCommand(nil, []byte("SET"), key, payload(64))},
		{"a 16 KiB GET through SimServer", resp.AppendCommand(nil, []byte("SET"), key, payload(16384)), resp.AppendCommand(nil, []byte("GET"), key)},
	} {
		cfg := DefaultConfig()
		cfg.Nagle, cfg.ExchangeTails = false, true
		r := newSimRig(t, cfg, DefaultSimServerConfig())
		replies := 0
		r.client.OnReadable(func() {
			r.parser.Commit(r.client.ReadInto(r.parser.Space(r.client.Readable())))
			for {
				if _, ok, _ := r.parser.Skip(); !ok {
					break
				}
				replies++
			}
		})
		request := func() {
			r.client.Send(c.req)
			for r.s.Step() {
			}
		}
		r.client.Send(c.setup)
		for i := 0; i < 100; i++ {
			request() // warm: the key, both parsers' buffers, the server's argv and reply buffers
		}
		allocgate.Zero(t, 200, c.name, request)
		want := 100 + 1 + 200 // allocgate.Zero runs f once more to warm it
		if c.setup != nil {
			want++
		}
		if replies != want || r.server.Stats().Requests != uint64(want) {
			t.Fatalf("%s: %d replies, %d served, want %d", c.name, replies, r.server.Stats().Requests, want)
		}
	}
}
