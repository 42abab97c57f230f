package tcpsim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// lossyNet builds a topology with packet loss and RTO-based recovery.
func lossyNet(t *testing.T, seed int64, loss float64) (*sim.Sim, *Conn, *Conn) {
	t.Helper()
	s := sim.New(seed)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	for _, st := range []*Stack{a, b} {
		st.TxCosts, st.RxCosts = cpumodel.Costs{}, cpumodel.Costs{}
		st.AckTxCost, st.AckRxCost = 0, 0
	}
	link := netem.NewLink(s, "lossy", netem.Config{
		BitsPerSec:  10_000_000_000,
		Propagation: 5 * time.Microsecond,
		LossProb:    loss,
	})
	cfg := DefaultConfig()
	cfg.Nagle = false
	cfg.RTO = 2 * time.Millisecond
	ca, cb := Connect(a, b, link, cfg)
	return s, ca, cb
}

func TestLossRecoverySingleTransfer(t *testing.T) {
	s, ca, cb := lossyNet(t, 3, 0.2)
	var want bytes.Buffer
	var got bytes.Buffer
	cb.OnReadable(func() { got.Write(cb.Read(0)) })
	for i := 0; i < 100; i++ {
		chunk := payload(5000)
		want.Write(chunk)
		ca.Send(chunk)
		s.RunFor(200 * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(30 * time.Second))
	got.Write(cb.Read(0))
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("lossy transfer corrupted: got %d bytes, want %d", got.Len(), want.Len())
	}
	if ca.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions despite 20% loss over ~400 packets")
	}
	if ca.InFlight() != 0 {
		t.Fatalf("in flight = %d after completion", ca.InFlight())
	}
}

func TestLossRecoveryBidirectionalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, ca, cb := lossyNet(t, 8, 0.1)
	var sentA, gotB, sentB, gotA bytes.Buffer
	cb.OnReadable(func() { gotB.Write(cb.Read(0)) })
	ca.OnReadable(func() { gotA.Write(ca.Read(0)) })
	for i := 0; i < 60; i++ {
		ax := payload(1 + rng.Intn(8000))
		sentA.Write(ax)
		ca.Send(ax)
		bx := payload(1 + rng.Intn(3000))
		sentB.Write(bx)
		cb.Send(bx)
		s.RunFor(time.Duration(rng.Intn(500)) * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(10 * time.Second))
	gotB.Write(cb.Read(0))
	gotA.Write(ca.Read(0))
	if !bytes.Equal(sentA.Bytes(), gotB.Bytes()) {
		t.Fatalf("a->b corrupted: %d vs %d bytes", sentA.Len(), gotB.Len())
	}
	if !bytes.Equal(sentB.Bytes(), gotA.Bytes()) {
		t.Fatalf("b->a corrupted: %d vs %d bytes", sentB.Len(), gotA.Len())
	}
}

func TestLossQueueAccountingBalanced(t *testing.T) {
	s, ca, cb := lossyNet(t, 5, 0.15)
	cb.OnReadable(func() { cb.Read(0) })
	total := 0
	for i := 0; i < 40; i++ {
		n := 500 + i*113
		total += n
		ca.Send(payload(n))
		s.RunFor(200 * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(10 * time.Second))
	ua, _, _ := ca.Snapshots(UnitBytes)
	if ua.Total != int64(total) {
		t.Fatalf("unacked departures %d != sent %d (loss corrupted the counters)", ua.Total, total)
	}
	for u := 0; u < NumUnits; u++ {
		if sz, _, _ := ca.Instr().Sizes(Unit(u)); sz != 0 {
			t.Fatalf("unacked[%v] = %d after recovery", Unit(u), sz)
		}
		if _, ur, _ := cb.Instr().Sizes(Unit(u)); ur != 0 {
			t.Fatalf("unread[%v] = %d after recovery", Unit(u), ur)
		}
	}
}

// TestLossInflatesMeasuredResidency: retransmission delay must show up in
// the unacked queue's Little's-law latency — loss makes the estimate grow,
// it must not silently corrupt it.
func TestLossInflatesMeasuredResidency(t *testing.T) {
	run := func(loss float64) time.Duration {
		s, ca, cb := lossyNet(t, 11, loss)
		cb.OnReadable(func() { cb.Read(0) })
		start, _, _ := ca.Snapshots(UnitBytes)
		for i := 0; i < 50; i++ {
			ca.Send(payload(2000))
			s.RunFor(300 * time.Microsecond)
		}
		s.RunUntil(s.Now().Add(10 * time.Second))
		end, _, _ := ca.Snapshots(UnitBytes)
		a := qstate.GetAvgs(start, end)
		if !a.Valid {
			t.Fatal("invalid interval")
		}
		return a.Latency
	}
	clean := run(0)
	lossy := run(0.25)
	if lossy < 3*clean {
		t.Fatalf("unacked latency clean=%v lossy=%v: recovery delay not reflected", clean, lossy)
	}
}

// TestCloseCancelsRTO: Close abandons data in flight, so a closed endpoint on
// a dead link must stop retransmitting — the event queue drains and Run
// returns instead of re-arming the RTO forever.
func TestCloseCancelsRTO(t *testing.T) {
	s, ca, _ := lossyNet(t, 4, math.Nextafter(1, 0)) // as dead as netem allows
	ca.Send(payload(20000))
	s.RunFor(50 * time.Millisecond)
	before := ca.Stats().Retransmits
	if before == 0 || ca.InFlight() == 0 {
		t.Fatalf("retransmits %d, in flight %d: the dead link was not exercised", before, ca.InFlight())
	}
	ca.Close()
	s.RunUntil(s.Now().Add(time.Hour))
	if got := ca.Stats().Retransmits; got != before {
		t.Fatalf("retransmits grew %d -> %d after Close", before, got)
	}
	if s.Step() {
		t.Fatal("events still pending an hour after Close on a dead link")
	}
}

func TestNoRTOOnLosslessStaysQuiet(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.RTO = 2 * time.Millisecond
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(20000))
	s.RunUntil(sim.Time(time.Second))
	if ca.Stats().Retransmits != 0 {
		t.Fatalf("retransmits = %d on a lossless link", ca.Stats().Retransmits)
	}
	if cb.Readable() != 20000 {
		t.Fatalf("readable = %d", cb.Readable())
	}
}

func TestLosslessWithoutRTOStillPanicsOnGap(t *testing.T) {
	// The no-recovery contract remains: a lossy pipe without RTO is a
	// configuration error surfaced loudly.
	s := sim.New(2)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	link := netem.NewLink(s, "l", netem.Config{Propagation: time.Microsecond, LossProb: 0.5})
	cfg := DefaultConfig()
	cfg.Nagle = false
	ca, _ := Connect(a, b, link, cfg)
	defer func() {
		if recover() == nil {
			t.Skip("no gap materialized under this seed")
		}
	}()
	for i := 0; i < 50; i++ {
		ca.Send(payload(5000))
		s.RunFor(100 * time.Microsecond)
	}
	s.RunUntil(sim.Time(time.Second))
}

// TestSegmentPoolUnderLossAndRetransmission: go-back-N sends fresh segments
// for ranges whose originals may still sit in a CPU, wire or GRO queue, and
// the wire drops some of each. Through all of it a segment is on its sender's
// free list at most once and never while an event or queue still holds it —
// HandleEvent and recycle panic on either — and the stream arrives intact.
func TestSegmentPoolUnderLossAndRetransmission(t *testing.T) {
	for _, gro := range []bool{false, true} {
		s, ca, cb := lossyNet(t, 11, 0.2)
		ca.cfg.GRO, cb.cfg.GRO = gro, gro
		ca.stack.RxCosts = cpumodel.Costs{PerBatch: 3 * time.Microsecond} // a backlog for GRO to merge
		cb.stack.RxCosts = ca.stack.RxCosts
		var sent, got bytes.Buffer
		cb.OnReadable(func() {
			got.Write(cb.Read(0))
			cb.Send(payload(10)) // replies, so both directions pool data segments
		})
		ca.OnReadable(func() { ca.Read(0) })
		pooledOnce := func() {
			t.Helper()
			seen := map[*segment]bool{}
			for _, c := range []*Conn{ca, cb} {
				for _, seg := range append(append([]*segment(nil), c.rxQueue...), c.rxBatch...) {
					if seg.pooled {
						t.Fatalf("GRO=%v: %s holds a recycled segment in its receive queue", gro, c.Name())
					}
				}
				for _, seg := range c.segFree {
					if seen[seg] || !seg.pooled {
						t.Fatalf("GRO=%v: %s free list: segment listed twice (%v) or not marked pooled", gro, c.Name(), seen[seg])
					}
					seen[seg] = true
				}
			}
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			chunk := payload(1 + rng.Intn(6000))
			sent.Write(chunk)
			ca.Send(chunk)
			for until := s.Now().Add(time.Duration(rng.Intn(300)) * time.Microsecond); ; {
				if at, ok := s.NextAt(); !ok || at > until {
					break
				}
				s.Step()
				pooledOnce()
			}
		}
		s.RunUntil(s.Now().Add(30 * time.Second))
		pooledOnce()
		if !bytes.Equal(got.Bytes(), sent.Bytes()) {
			t.Fatalf("GRO=%v: read %d bytes, sent %d: stream corrupted", gro, got.Len(), sent.Len())
		}
		if a, b := ca.Stats(), cb.Stats(); a.Retransmits == 0 || b.DupPayloads == 0 || gro && b.GROMerged == 0 {
			t.Fatalf("GRO=%v: retransmits %d, duplicates %d, merged %d: recovery was not exercised", gro, a.Retransmits, b.DupPayloads, b.GROMerged)
		}
		if len(ca.segFree) == 0 || len(cb.segFree) == 0 {
			t.Fatalf("GRO=%v: free lists hold %d and %d segments after the run", gro, len(ca.segFree), len(cb.segFree))
		}
	}
}

// TestSegmentPoolAssertsOwnership pins the two panics the test above relies
// on: giving a segment back twice, and an event firing with one given back.
func TestSegmentPoolAssertsOwnership(t *testing.T) {
	_, ca, cb := testNet(t, fastCfg())
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	seg := ca.newSegment(0, 100)
	ca.recycle(seg)
	mustPanic("recycling a segment twice", func() { ca.recycle(seg) })
	mustPanic("an event firing with a recycled segment", func() { cb.HandleEvent(evArrive, seg) })
}
