package tcpsim

import (
	"encoding/binary"

	"e2ebatch/internal/sim"
)

// digest is a running 64-bit digest of a byte stream: four independent FNV-1a
// word lanes, one (h ^ w) * prime per 8 little-endian bytes, word i of the
// stream to lane i mod 4 — four multiply chains in flight instead of one. A
// word's lane follows from its absolute stream offset and up to 31 bytes that
// do not fill a 32-byte block yet wait in buf, so the value depends on the
// bytes alone, never on how Send or Read calls cut the stream. Each step is a
// bijection of the word it folds, so changing any one byte changes the digest.
// The zero digest is the empty stream.
type digest struct {
	lane [4]uint64
	buf  [digestBlock]byte // the last size % digestBlock bytes of the stream
	size uint64            // stream length in bytes
}

const (
	digestBasis = 14695981039346656037 // FNV-1a 64-bit offset basis: the empty stream
	digestPrime = 1099511628211        // FNV 64-bit prime
	digestBlock = 32                   // one word per lane
)

// fold appends data to the digested stream.
//
//e2e:hotpath
func (d *digest) fold(data []byte) {
	n := int(d.size % digestBlock)
	d.size += uint64(len(data))
	if n > 0 {
		k := copy(d.buf[n:], data)
		if n+k < digestBlock {
			return
		}
		d.blocks(d.buf[:])
		data = data[k:]
	}
	copy(d.buf[:], d.blocks(data))
}

// blocks folds the whole blocks at the front of data into the lanes and
// returns the rest. The race detector would check each word load on its
// own, which makes a fold some 200 times slower under -race; the loop is
// left uninstrumented and raceReadBlocks reports the folded bytes as one
// read instead, the way memmove reports a copy.
//
//go:norace
func (d *digest) blocks(data []byte) []byte {
	raceReadBlocks(data)
	h0, h1, h2, h3 := d.lane[0], d.lane[1], d.lane[2], d.lane[3]
	for len(data) >= digestBlock {
		h0 = (h0 ^ binary.LittleEndian.Uint64(data)) * digestPrime
		h1 = (h1 ^ binary.LittleEndian.Uint64(data[8:])) * digestPrime
		h2 = (h2 ^ binary.LittleEndian.Uint64(data[16:])) * digestPrime
		h3 = (h3 ^ binary.LittleEndian.Uint64(data[24:])) * digestPrime
		data = data[digestBlock:]
	}
	d.lane = [4]uint64{h0, h1, h2, h3}
	return data
}

// sum returns the digest of everything folded so far: one more FNV-1a chain
// over each lane and the word of the zero-padded pending block that lane
// would fold next, then the stream length — so lanes do not commute and
// trailing zero bytes count. The chain starts at zero and the offset basis
// goes in last, which makes the empty stream read digestBasis.
func (d *digest) sum() uint64 {
	var tail [digestBlock]byte
	copy(tail[:], d.buf[:d.size%digestBlock])
	var h uint64
	for i, lane := range d.lane {
		h = (h ^ lane) * digestPrime
		h = (h ^ binary.LittleEndian.Uint64(tail[8*i:])) * digestPrime
	}
	return digestBasis ^ (h^d.size)*digestPrime
}

// byteFIFO is one direction's byte stream between Send and the peer's Read:
// the slices Send was given, held by reference, consumed from the front.
// Segments carry only offsets into it, so take is a payload byte's one copy.
type byteFIFO struct {
	chunks sim.FIFO[[]byte]
	off    int // consumed bytes of the front chunk
}

// push appends data to the stream without copying it.
func (q *byteFIFO) push(data []byte) { q.chunks.Push(data) }

// take removes the first len(dst) bytes of the stream and copies them into
// dst. The caller guarantees the stream holds that many. A sender's slice is
// released as soon as its last byte is taken, so once the peer application
// has read a Send's bytes the stream holds no reference to them.
func (q *byteFIFO) take(dst []byte) {
	for len(dst) > 0 {
		front := q.chunks.Live()[0][q.off:]
		if len(front) > len(dst) {
			q.off += copy(dst, front)
			return
		}
		dst = dst[copy(dst, front):]
		q.chunks.Drop(1) // releases the sender's slice
		q.off = 0
	}
}

// offsets is an ascending queue of stream offsets — message or wire-segment
// ends — consumed from the front.
type offsets = sim.FIFO[int64]

// pushSegEnds pushes the end offsets of the MSS-sized wire segments that
// carry the non-empty stream range [start, end).
func pushSegEnds(q *offsets, start, end, mss int64) {
	for e := start + mss; e < end; e += mss {
		q.Push(e)
	}
	q.Push(end)
}

// popLE removes the leading offsets that are <= limit and returns how many
// it removed.
func popLE(q *offsets, limit int64) int64 {
	n := 0
	for _, x := range q.Live() {
		if x > limit {
			break
		}
		n++
	}
	q.Drop(n)
	return int64(n)
}
