package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestByteFIFOMatchesFlatModel drives the chunk FIFO and a flat []byte with
// the same random pushes and takes — whole chunks, single bytes, takes that
// end inside a chunk and takes that span several — and requires the same
// bytes out, in order, and nothing left behind.
func TestByteFIFOMatchesFlatModel(t *testing.T) {
	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var q byteFIFO
		var model, scratch []byte
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 {
				chunk := make([]byte, 1+rng.Intn(64))
				rng.Read(chunk)
				q.push(chunk)
				model = append(model, chunk...)
				continue
			}
			n := 0
			if len(model) > 0 {
				n = rng.Intn(len(model) + 1)
			}
			scratch = q.take(scratch[:0], n)
			if !bytes.Equal(scratch, model[:n]) {
				t.Fatalf("trial %d op %d: take(%d) returned the wrong bytes", trial, op, n)
			}
			model = model[n:]
		}
		if rest := q.take(nil, len(model)); !bytes.Equal(rest, model) {
			t.Fatalf("trial %d: final drain differs from the model", trial)
		}
		if n := q.chunks.Len(); n != 0 {
			t.Fatalf("trial %d: %d chunks left after draining", trial, n)
		}
	}
}

// TestLossyStreamIntactUnderOverlappingRetransmission: over a link that
// drops a fifth of the packets in both directions — so data is lost, ACKs are
// lost, and go-back-N resends ranges the receiver already holds in part — the
// receiver reads exactly the bytes sent, through random partial reads, and
// the digests agree.
func TestLossyStreamIntactUnderOverlappingRetransmission(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, ca, cb := lossyNet(t, 21, 0.2)
	var sent, got bytes.Buffer
	cb.OnReadable(func() {
		for cb.Readable() > 0 && rng.Intn(5) != 0 {
			got.Write(cb.Read(1 + rng.Intn(6000)))
		}
	})
	for i := 0; i < 150; i++ {
		chunk := make([]byte, 1+rng.Intn(9000))
		rng.Read(chunk)
		sent.Write(chunk)
		ca.Send(chunk)
		s.RunFor(time.Duration(rng.Intn(400)) * time.Microsecond)
	}
	s.RunUntil(s.Now().Add(30 * time.Second))
	got.Write(cb.Read(0))

	if !bytes.Equal(got.Bytes(), sent.Bytes()) {
		t.Fatalf("read %d bytes, sent %d: stream corrupted", got.Len(), sent.Len())
	}
	a, b := ca.Stats(), cb.Stats()
	if a.SentDigest != b.ReadDigest {
		t.Fatalf("SentDigest %#x != peer ReadDigest %#x", a.SentDigest, b.ReadDigest)
	}
	if a.SentDigest != digestOf(sent.Bytes()) {
		t.Fatalf("SentDigest %#x is not the digest of the bytes sent", a.SentDigest)
	}
	if a.Retransmits == 0 || b.DupPayloads == 0 {
		t.Fatalf("retransmits %d, duplicate payloads %d: recovery was not exercised", a.Retransmits, b.DupPayloads)
	}
	if ca.InFlight() != 0 || ca.Unsent() != 0 {
		t.Fatalf("in flight %d, unsent %d after the transfer", ca.InFlight(), ca.Unsent())
	}
}

// TestDeliverTrimsOverlappingRetransmission pins the overlap branch itself:
// a resent range whose head the receiver already holds contributes only its
// new tail — bytes, wire segments and message boundaries.
func TestDeliverTrimsOverlappingRetransmission(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.RTO = time.Second
	s, ca, cb := testNet(t, cfg)
	want := payload(3000)
	for i := 0; i < 3000; i += 1000 {
		ca.Send(want[i : i+1000])
	}
	// Before the three flushes land, a retransmission of the first 1500
	// bytes wins the race, then one of all 3000 overlaps it; the originals
	// arrive last, as pure duplicates.
	cb.deliver(&segment{start: 0, n: 1500, nsegs: 2, bounds: []int64{1000}})
	cb.deliver(&segment{start: 0, n: 3000, nsegs: 3, bounds: []int64{1000, 2000, 3000}})
	s.RunFor(time.Millisecond)
	if st := cb.Stats(); st.DupPayloads != 4 {
		t.Fatalf("DupPayloads = %d, want 1 overlap + 3 duplicates", st.DupPayloads)
	}
	if _, msgs, _ := cb.Instr().Sizes(UnitSends); msgs != 3 {
		t.Fatalf("unread holds %d messages, want 3: the overlap's boundaries were not trimmed", msgs)
	}
	if got := cb.Read(0); !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes after overlap, want the %d sent intact", len(got), len(want))
	}
	if ca.Stats().SentDigest != cb.Stats().ReadDigest {
		t.Fatal("digests differ after an overlapping retransmission")
	}
}

// TestReadResultValidUntilNextRead: what Read returns is the connection's own
// buffer — untouched by later sends and deliveries in either direction and by
// the peer's Reads, and only reused by the next Read on the same connection.
func TestReadResultValidUntilNextRead(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	first, second := payload(1000), bytes.Repeat([]byte{'#'}, 5000)
	ca.Send(first)
	s.RunFor(100 * time.Microsecond)
	got := cb.Read(300)
	keep := append([]byte(nil), got...)

	ca.Send(second)
	cb.Send(payload(64))
	s.RunFor(100 * time.Microsecond)
	ca.Read(0)
	if !bytes.Equal(got, keep) || !bytes.Equal(got, first[:300]) {
		t.Fatal("Read result changed before the next Read on that connection")
	}
	// The result is a copy, not a view of the sender's slice.
	got[0] ^= 0xff
	if first[0] != 'a' {
		t.Fatal("Read result aliases the sender's data")
	}
	rest := cb.Read(0)
	if want := append(append([]byte(nil), first[300:]...), second...); !bytes.Equal(rest, want) {
		t.Fatalf("second Read returned %d bytes, want the remaining %d", len(rest), len(want))
	}
}

// TestSendKeepsDataByReference documents the aliasing contract from the
// other side: Send takes no copy, so the same slice may be sent again and
// again (as the workload makers and the benchmark replay do) at the cost of
// one slice header, and the stream is what the slice held when it was read.
// That is why both ends digest: Send's pass sees the bytes as written, Read's
// the bytes as delivered, and a caller that breaks the contract — modifies
// the slice after Send, before the peer's Read — is what sets them apart.
func TestSendKeepsDataByReference(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	wire := payload(2000)
	var got []byte
	cb.OnReadable(func() { got = append(got, cb.Read(0)...) })
	for i := 0; i < 5; i++ {
		ca.Send(wire)
		s.RunFor(50 * time.Microsecond)
	}
	if !bytes.Equal(got, bytes.Repeat(wire, 5)) {
		t.Fatalf("resending one slice five times delivered %d bytes, want 5 copies of it", len(got))
	}
	if ca.Stats().SentDigest != cb.Stats().ReadDigest {
		t.Fatal("digests differ after re-sending an unmodified slice")
	}
	if n := ca.sndBuf.chunks.Len(); n != 0 {
		t.Fatalf("%d chunks still held after the peer read everything", n)
	}

	ca.Send(wire)
	wire[1234] ^= 1 // the contract broken: the peer has not read it yet
	s.RunFor(50 * time.Microsecond)
	if len(got) != 6*len(wire) || got[5*len(wire)+1234] != wire[1234] {
		t.Fatalf("read %d bytes; the peer should have read the slice as modified", len(got))
	}
	if ca.Stats().SentDigest == cb.Stats().ReadDigest {
		t.Fatal("a slice modified between Send and the peer's Read left SentDigest == peer ReadDigest")
	}
}
