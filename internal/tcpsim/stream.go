package tcpsim

import (
	"encoding/binary"

	"e2ebatch/internal/sim"
)

// digest is a running 64-bit digest of a byte stream: eight independent word
// lanes that each take 16 bytes per multiply. The stream is cut into 128-byte
// blocks of sixteen little-endian words; words j and j+8 of a block go to
// lane j as h = (h ^ w_j)*prime + w_{j+8}, so eight multiply chains are in
// flight and each folds two words per step. A word's lane follows from its
// absolute stream offset, and up to 127 bytes that do not fill a block yet
// wait in buf, so the value depends on the bytes alone, never on how Send or
// Read calls cut the stream. Each step is a bijection of either word it folds
// (the prime is odd), so changing any one byte changes the digest. The zero
// digest is the empty stream.
type digest struct {
	lane [digestLanes]uint64
	buf  [digestBlock]byte // the last size % digestBlock bytes of the stream
	size uint64            // stream length in bytes
}

const (
	digestBasis = 14695981039346656037 // FNV-1a 64-bit offset basis: the empty stream
	digestPrime = 1099511628211        // FNV 64-bit prime
	digestLanes = 8
	digestBlock = 16 * digestLanes // two words per lane
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
	h0, h1, h2, h3, h4, h5, h6, h7 := d.lane[0], d.lane[1], d.lane[2], d.lane[3], d.lane[4], d.lane[5], d.lane[6], d.lane[7]
	le := binary.LittleEndian
	for ; len(data) >= digestBlock; data = data[digestBlock:] {
		b := (*[digestBlock]byte)(data)
		h0 = (h0^le.Uint64(b[0:]))*digestPrime + le.Uint64(b[64:])
		h1 = (h1^le.Uint64(b[8:]))*digestPrime + le.Uint64(b[72:])
		h2 = (h2^le.Uint64(b[16:]))*digestPrime + le.Uint64(b[80:])
		h3 = (h3^le.Uint64(b[24:]))*digestPrime + le.Uint64(b[88:])
		h4 = (h4^le.Uint64(b[32:]))*digestPrime + le.Uint64(b[96:])
		h5 = (h5^le.Uint64(b[40:]))*digestPrime + le.Uint64(b[104:])
		h6 = (h6^le.Uint64(b[48:]))*digestPrime + le.Uint64(b[112:])
		h7 = (h7^le.Uint64(b[56:]))*digestPrime + le.Uint64(b[120:])
	}
	d.lane = [digestLanes]uint64{h0, h1, h2, h3, h4, h5, h6, h7}
	return data
}

// sum returns the digest of everything folded so far: one FNV-1a chain over
// each lane and the two words of the zero-padded pending block that lane
// would fold next, then the stream length — so lanes do not commute and
// trailing zero bytes count. The chain starts at zero and the offset basis
// goes in last, which makes the empty stream read digestBasis.
func (d *digest) sum() uint64 {
	var tail [digestBlock]byte
	copy(tail[:], d.buf[:d.size%digestBlock])
	var h uint64
	for j, lane := range d.lane {
		h = (h ^ lane) * digestPrime
		h = (h ^ binary.LittleEndian.Uint64(tail[8*j:])) * digestPrime
		h = (h ^ binary.LittleEndian.Uint64(tail[8*(j+digestLanes):])) * digestPrime
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
