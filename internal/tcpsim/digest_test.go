package tcpsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/sim"
)

// digestOf is the one-shot reference, written without fold: a plain loop over
// the whole 128-byte blocks — words j and j+8 of each to lane j of eight, as
// (lane ^ w_j)*prime + w_{j+8} — then one chain over each lane and the two
// words of the zero-padded tail it would fold next, and the length.
func digestOf(data []byte) uint64 {
	word := func(b []byte) (w uint64) {
		for i := 7; i >= 0; i-- {
			w = w<<8 | uint64(b[i])
		}
		return w
	}
	var lane [8]uint64
	whole := len(data) - len(data)%128
	for b := 0; b < whole; b += 128 {
		for j := range lane {
			lane[j] = (lane[j]^word(data[b+8*j:]))*digestPrime + word(data[b+64+8*j:])
		}
	}
	tail := append(append([]byte(nil), data[whole:]...), make([]byte, 128)...)
	h := uint64(0)
	for j := range lane {
		h = (h ^ lane[j]) * digestPrime
		h = (h ^ word(tail[8*j:])) * digestPrime
		h = (h ^ word(tail[64+8*j:])) * digestPrime
	}
	return digestBasis ^ (h^uint64(len(data)))*digestPrime
}

// TestDigestSplitInvariance: however a stream is cut into Send- or Read-sized
// pieces, the digest is the one-shot reference's. Exhaustively: every length
// from nothing to three blocks and a 127-byte tail, cut in two at every offset;
// the longest also cut in three at every pair of offsets. Then random cuts
// with empty pieces, single bytes and pieces one either side of the word and
// block sizes.
func TestDigestSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const longest = 3*digestBlock + digestBlock - 1
	all := make([]byte, longest)
	rng.Read(all)
	for n := 0; n <= longest; n++ {
		data, want := all[:n], digestOf(all[:n])
		for cut := 0; cut <= n; cut++ {
			var d digest
			d.fold(data[:cut])
			d.fold(data[cut:])
			if got := d.sum(); got != want {
				t.Fatalf("%d bytes cut at %d: digest %#x, one-shot %#x", n, cut, got, want)
			}
		}
	}
	want := digestOf(all)
	for a := 0; a <= longest; a++ {
		for b := a; b <= longest; b++ {
			var d digest
			d.fold(all[:a])
			d.fold(all[a:b])
			d.fold(all[b:])
			if got := d.sum(); got != want {
				t.Fatalf("cut at %d and %d: digest %#x, one-shot %#x", a, b, got, want)
			}
		}
	}
	sizes := []int{0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129}
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(1000))
		rng.Read(data)
		var d digest
		for rest := data; len(rest) > 0; {
			n := sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) == 0 {
				n = rng.Intn(300)
			}
			n = min(n, len(rest))
			d.fold(rest[:n])
			rest = rest[n:]
		}
		if got, want := d.sum(), digestOf(data); got != want {
			t.Fatalf("trial %d (%d bytes): split digest %#x, one-shot %#x", trial, len(data), got, want)
		}
	}
	if got := new(digest).sum(); got != digestBasis || digestOf(nil) != digestBasis {
		t.Fatalf("empty stream digest = %#x, want the offset basis", got)
	}
}

// FuzzDigestSplit is the same property under the fuzzer: one cut anywhere.
func FuzzDigestSplit(f *testing.F) {
	f.Add([]byte("hello stream"), uint(5))
	f.Add(make([]byte, 17), uint(8))
	f.Add(payload(300), uint(130))
	f.Add([]byte{}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		at := int(cut % uint(len(data)+1))
		var d digest
		d.fold(data[:at])
		d.fold(data[at:])
		if got, want := d.sum(), digestOf(data); got != want {
			t.Fatalf("cut at %d of %d: %#x, one-shot %#x", at, len(data), got, want)
		}
	})
}

// foldOf is the digest of data through the kernel, in one piece.
func foldOf(data []byte) uint64 {
	var d digest
	d.fold(data)
	return d.sum()
}

// TestDigestSensitivity: the digest covers every byte, the length and the
// order — the properties a byte counter lacks, and the ones the lanes could
// have lost.
func TestDigestSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 7, 8, 9, 16, 63, 64, 65, 72, 127, 128, 129, 200, 256, 300} {
		data := make([]byte, n)
		rng.Read(data)
		want := foldOf(data)
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				data[i] ^= 1 << bit
				if foldOf(data) == want {
					t.Fatalf("len %d: flipping bit %d of byte %d left the digest unchanged", n, bit, i)
				}
				data[i] ^= 1 << bit
			}
		}
		if foldOf(append(data[:n:n], 0)) == want {
			t.Fatalf("len %d: appending a zero byte left the digest unchanged", n)
		}
		if foldOf(data[:n-1]) == want {
			t.Fatalf("len %d: dropping the last byte left the digest unchanged", n)
		}
	}
	// All-zero streams never move a lane or the tail; only the length tells
	// them apart.
	seen := map[uint64]int{}
	for n := 0; n <= 300; n++ {
		d := foldOf(make([]byte, n))
		if m, dup := seen[d]; dup {
			t.Fatalf("zero streams of %d and %d bytes share digest %#x", m, n, d)
		}
		seen[d] = n
	}
	// Transpositions: the lanes are independent, so order has to survive in
	// which lane a word went to, in the order of a lane's two words per step,
	// in each lane's own chain, and in sum's chain over the lanes. Each case
	// swaps one or two pairs of equal-length ranges.
	data := make([]byte, 4*digestBlock+5)
	rng.Read(data)
	want := foldOf(data)
	type swap struct{ a, b, n int }
	for _, c := range []struct {
		name  string
		swaps []swap
	}{
		{"two adjacent words (different lanes)", []swap{{136, 144, 8}}},
		{"a lane's multiplied word and its added word", []swap{{152, 152 + 64, 8}}},
		{"two words one block apart (same lane)", []swap{{152, 152 + digestBlock, 8}}},
		{"a lane's two words in one block and in the next", []swap{{152, 152 + digestBlock, 8}, {216, 216 + digestBlock, 8}}},
		{"two whole blocks", []swap{{digestBlock, 2 * digestBlock, digestBlock}}},
		{"a lane word and the tail's", []swap{{400, 4 * digestBlock, 5}}},
	} {
		swapped := append([]byte(nil), data...)
		for _, w := range c.swaps {
			copy(swapped[w.a:], data[w.b:w.b+w.n])
			copy(swapped[w.b:], data[w.a:w.a+w.n])
		}
		if foldOf(swapped) == want {
			t.Errorf("swapping %s left the digest unchanged", c.name)
		}
	}
	// In a stream of one block a lane's two words are its whole history:
	// swapping lane 0's pair with lane 1's swaps two lanes, which only sum's
	// chain over the lanes can tell.
	one := append([]byte(nil), data[:digestBlock]...)
	copy(one[0:], data[8:16])
	copy(one[8:], data[0:8])
	copy(one[64:], data[72:80])
	copy(one[72:], data[64:72])
	if foldOf(one) == foldOf(data[:digestBlock]) {
		t.Error("swapping two whole lanes left the digest unchanged")
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

// BenchmarkDigestFold times the kernel at the fold sizes the simulator sees:
// a reply, a 64 B SET, one MSS and a 16 KiB SET.
func BenchmarkDigestFold(b *testing.B) {
	for _, n := range []int{5, 90, 1448, 16411} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			data := payload(n)
			var d digest
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				d.fold(data)
			}
			if d.sum() == digestBasis {
				b.Fatal("digest did not move")
			}
		})
	}
}
