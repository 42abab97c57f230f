package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

// digestOf is the one-shot reference: the digest of data written in one
// piece.
func digestOf(data []byte) uint64 {
	d := digest{h: digestBasis}
	d.fold(data)
	return d.sum()
}

// TestDigestSplitInvariance: however a stream is cut into Send- or Read-sized
// pieces — empty ones, single bytes and pieces one either side of the word
// size included — the digest is the one a single write gives.
func TestDigestSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 7, 8, 9}
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		d := digest{h: digestBasis}
		for rest := data; len(rest) > 0; {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				n = rng.Intn(40)
			}
			n = min(n, len(rest))
			d.fold(rest[:n])
			rest = rest[n:]
		}
		if got, want := d.sum(), digestOf(data); got != want {
			t.Fatalf("trial %d (%d bytes): split digest %#x, one-shot %#x", trial, len(data), got, want)
		}
	}
	if got := digestOf(nil); got != digestBasis {
		t.Fatalf("empty stream digest = %#x, want the offset basis", got)
	}
}

// FuzzDigestSplit is the same property under the fuzzer: one cut anywhere.
func FuzzDigestSplit(f *testing.F) {
	f.Add([]byte("hello stream"), uint(5))
	f.Add(make([]byte, 17), uint(8))
	f.Add([]byte{}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		at := int(cut % uint(len(data)+1))
		d := digest{h: digestBasis}
		d.fold(data[:at])
		d.fold(data[at:])
		if got, want := d.sum(), digestOf(data); got != want {
			t.Fatalf("cut at %d of %d: %#x, one-shot %#x", at, len(data), got, want)
		}
	})
}

// TestDigestSensitivity: the digest covers every byte and the length — the
// properties a byte counter lacks.
func TestDigestSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 7, 8, 9, 16, 61, 64} {
		data := make([]byte, n)
		rng.Read(data)
		want := digestOf(data)
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				data[i] ^= 1 << bit
				if digestOf(data) == want {
					t.Fatalf("len %d: flipping bit %d of byte %d left the digest unchanged", n, bit, i)
				}
				data[i] ^= 1 << bit
			}
		}
		if digestOf(append(data[:n:n], 0)) == want {
			t.Fatalf("len %d: appending a zero byte left the digest unchanged", n)
		}
		if digestOf(data[:n-1]) == want {
			t.Fatalf("len %d: dropping the last byte left the digest unchanged", n)
		}
	}
	// All-zero streams of different lengths fold the same words; only the
	// pending length tells them apart.
	seen := map[uint64]int{}
	for n := 0; n <= 24; n++ {
		d := digestOf(make([]byte, n))
		if m, dup := seen[d]; dup {
			t.Fatalf("zero streams of %d and %d bytes share digest %#x", m, n, d)
		}
		seen[d] = n
	}
}

// TestStreamDigestsTrackBytes drives a small echo exchange and checks the
// digest invariants: initialized to the offset basis, updated by traffic,
// and — since TCP delivers the sent stream intact — each side's ReadDigest
// equal to the peer's SentDigest once everything is consumed.
func TestStreamDigestsTrackBytes(t *testing.T) {
	s := sim.New(5)
	cs, ss := NewStack(s, "client"), NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: time.Microsecond})
	cc, sc := Connect(cs, ss, link, DefaultConfig())

	if st := cc.Stats(); st.SentDigest != digestBasis || st.ReadDigest != digestBasis {
		t.Fatalf("fresh conn digests not at offset basis: %+v", st)
	}

	var serverRead []byte
	sc.OnReadable(func() {
		for {
			chunk := sc.Read(4096)
			if len(chunk) == 0 {
				return
			}
			serverRead = append(serverRead, chunk...)
		}
	})
	payloads := [][]byte{[]byte("hello "), []byte("stream"), make([]byte, 3000)}
	var all []byte
	for _, p := range payloads {
		cc.Send(p)
		all = append(all, p...)
	}
	want := digestOf(all)
	s.RunFor(10 * time.Millisecond)

	ccSt, scSt := cc.Stats(), sc.Stats()
	if ccSt.SentDigest != want {
		t.Fatalf("client SentDigest = %#x, want %#x", ccSt.SentDigest, want)
	}
	if scSt.ReadDigest != want {
		t.Fatalf("server ReadDigest = %#x, want sender's %#x", scSt.ReadDigest, want)
	}
	if !bytes.Equal(serverRead, all) {
		t.Fatalf("server read %d bytes, not the %d sent", len(serverRead), len(all))
	}
	// The server sent nothing: its sent digest is untouched, as is the
	// client's read digest.
	if scSt.SentDigest != digestBasis || ccSt.ReadDigest != digestBasis {
		t.Fatalf("idle direction digests moved: %#x %#x", scSt.SentDigest, ccSt.ReadDigest)
	}
	// Different payload bytes produce a different digest even at equal
	// lengths — the property a byte counter lacks.
	s2 := sim.New(5)
	cs2, ss2 := NewStack(s2, "client"), NewStack(s2, "server")
	link2 := netem.NewLink(s2, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: time.Microsecond})
	cc2, _ := Connect(cs2, ss2, link2, DefaultConfig())
	cc2.Send([]byte("hellp "))
	cc2.Send([]byte("stream"))
	cc2.Send(make([]byte, 3000))
	s2.RunFor(10 * time.Millisecond)
	if cc2.Stats().SentDigest == want {
		t.Fatal("digest insensitive to payload bytes")
	}
}
