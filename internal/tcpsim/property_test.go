package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// TestPropertyStreamIntegrity drives random send sizes, random mode
// toggles, random cork thresholds and random read patterns through the
// connection and asserts the byte stream arrives intact and in order, and
// the queue accounting ends balanced — the core contracts everything else
// rests on.
func TestPropertyStreamIntegrity(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := sim.New(int64(trial) * 17)
		a := NewStack(s, "a")
		b := NewStack(s, "b")
		link := netem.NewLink(s, "lnk", netem.Config{
			BitsPerSec:  10_000_000_000,
			Propagation: time.Duration(1+rng.Intn(20)) * time.Microsecond,
			Jitter:      time.Duration(rng.Intn(5)) * time.Microsecond,
		})
		cfg := DefaultConfig()
		cfg.Nagle = rng.Intn(2) == 0
		cfg.DelAckTimeout = time.Duration(50+rng.Intn(500)) * time.Microsecond
		cfg.RecvBuf = int64(64<<10 + rng.Intn(1<<20))
		ca, cb := Connect(a, b, link, cfg)

		var sent, received bytes.Buffer
		cb.OnReadable(func() {
			// Random partial reads.
			for cb.Readable() > 0 && rng.Intn(4) != 0 {
				received.Write(cb.Read(1 + rng.Intn(8000)))
			}
		})

		next := byte(0)
		for op := 0; op < 200; op++ {
			switch rng.Intn(6) {
			case 0, 1, 2: // send a random chunk
				n := 1 + rng.Intn(20000)
				chunk := make([]byte, n)
				for i := range chunk {
					chunk[i] = next
					next++
				}
				sent.Write(chunk)
				ca.Send(chunk)
			case 3: // toggle mode
				ca.SetNoDelay(rng.Intn(2) == 0)
			case 4: // adjust cork
				ca.SetCorkBytes(rng.Intn(128 << 10))
			case 5: // let time pass
			}
			s.RunFor(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
		ca.SetNoDelay(true) // flush any held tail
		s.RunFor(500 * time.Millisecond)
		for cb.Readable() > 0 {
			received.Write(cb.Read(0))
			s.RunFor(10 * time.Millisecond)
		}

		if !bytes.Equal(sent.Bytes(), received.Bytes()) {
			t.Fatalf("trial %d: stream corrupted: sent %d bytes, received %d",
				trial, sent.Len(), received.Len())
		}

		// Queue accounting must balance: everything sent was acked and
		// read, so every tracked queue is empty in every unit.
		for u := 0; u < NumUnits; u++ {
			if ua, _, _ := ca.Instr().Sizes(Unit(u)); ua != 0 {
				t.Fatalf("trial %d: unacked[%v] = %d after quiesce", trial, Unit(u), ua)
			}
			if _, ur, _ := cb.Instr().Sizes(Unit(u)); ur != 0 {
				t.Fatalf("trial %d: unread[%v] = %d after quiesce", trial, Unit(u), ur)
			}
			if _, _, ad := cb.Instr().Sizes(Unit(u)); ad != 0 {
				t.Fatalf("trial %d: ackdelay[%v] = %d after quiesce", trial, Unit(u), ad)
			}
		}

		// Byte-unit totals: departures from unacked == bytes sent; from
		// unread == bytes read.
		ua, _, _ := ca.Snapshots(UnitBytes)
		if ua.Total != int64(sent.Len()) {
			t.Fatalf("trial %d: unacked departures %d != sent %d", trial, ua.Total, sent.Len())
		}
		_, urB, _ := cb.Snapshots(UnitBytes)
		if urB.Total != int64(received.Len()) {
			t.Fatalf("trial %d: unread departures %d != received %d", trial, urB.Total, received.Len())
		}
	}
}

// TestPropertyUnackedLatencyNonNegative checks GetAvgs over random windows
// of a live connection never yields negative latency or throughput.
func TestPropertyUnackedLatencyNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := sim.New(123)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	ca, cb := Connect(a, b, link, DefaultConfig())
	cb.OnReadable(func() { cb.Read(0) })

	var prev [NumUnits][3]qstate.Snapshot
	snap := func(u Unit) [3]qstate.Snapshot {
		x, y, z := ca.Snapshots(u)
		return [3]qstate.Snapshot{x, y, z}
	}
	for u := 0; u < NumUnits; u++ {
		prev[u] = snap(Unit(u))
	}
	for i := 0; i < 300; i++ {
		ca.Send(make([]byte, 1+rng.Intn(30000)))
		s.RunFor(time.Duration(1+rng.Intn(200)) * time.Microsecond)
		for u := 0; u < NumUnits; u++ {
			cur := snap(Unit(u))
			for qi := 0; qi < 3; qi++ {
				avgs := qstate.GetAvgs(prev[u][qi], cur[qi])
				if avgs.Latency < 0 || avgs.Throughput < 0 || avgs.Q < 0 {
					t.Fatalf("negative averages: %+v (unit %v queue %d)", avgs, Unit(u), qi)
				}
			}
			prev[u] = cur
		}
	}
}

// TestPropertyReadIntoPieces sends one random stream over two connections.
// One reader takes it through ReadInto in random-sized pieces, into buffers
// shorter and longer than what is readable, so pieces end inside Send chunks
// and span several; the other takes it with one Read(0) at the end. Both must
// see the same bytes and end with the same ReadDigest.
func TestPropertyReadIntoPieces(t *testing.T) {
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(trial))
		s := sim.New(trial)
		pair := func(name string) (*Conn, *Conn) {
			link := netem.NewLink(s, name, netem.Config{BitsPerSec: 10_000_000_000, Propagation: time.Microsecond})
			cfg := DefaultConfig()
			cfg.Nagle = rng.Intn(2) == 0
			return Connect(NewStack(s, name+"/a"), NewStack(s, name+"/b"), link, cfg)
		}
		pa, pb := pair("pieces")
		wa, wb := pair("whole")

		var pieces []byte
		buf := make([]byte, 8192)
		readPieces := func() {
			for pb.Readable() > 0 {
				p := buf[:rng.Intn(len(buf))]
				n := pb.ReadInto(p)
				if n != min(len(p), n+pb.Readable()) {
					t.Fatalf("trial %d: ReadInto into %d bytes returned %d with %d left readable", trial, len(p), n, pb.Readable())
				}
				pieces = append(pieces, p[:n]...)
			}
		}
		pb.OnReadable(readPieces)

		var sent []byte
		for op := 0; op < 100; op++ {
			chunk := make([]byte, 1+rng.Intn(5000))
			rng.Read(chunk)
			sent = append(sent, chunk...)
			pa.Send(chunk)
			wa.Send(chunk)
			s.RunFor(time.Duration(rng.Intn(50)) * time.Microsecond)
		}
		pa.SetNoDelay(true)
		wa.SetNoDelay(true)
		s.RunFor(100 * time.Millisecond)
		readPieces()
		whole := wb.Read(0)

		if !bytes.Equal(pieces, sent) || !bytes.Equal(whole, sent) {
			t.Fatalf("trial %d: sent %d bytes; ReadInto pieces read %d, Read(0) %d, not all equal", trial, len(sent), len(pieces), len(whole))
		}
		if got, want := pb.Stats().ReadDigest, wb.Stats().ReadDigest; got != want || want != pa.Stats().SentDigest {
			t.Fatalf("trial %d: ReadDigest %x through pieces, %x through Read(0), sender %x", trial, got, want, pa.Stats().SentDigest)
		}
		if pb.ReadInto(buf) != 0 || pb.ReadInto(nil) != 0 {
			t.Fatalf("trial %d: ReadInto of a drained connection returned bytes", trial)
		}
	}
}
