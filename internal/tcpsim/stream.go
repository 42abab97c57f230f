package tcpsim

import (
	"encoding/binary"

	"e2ebatch/internal/sim"
)

// digest is a running 64-bit digest of a byte stream: FNV-1a's step taken a
// word at a time, one (h ^ w) * prime per 8 little-endian bytes. Up to 7 bytes
// that do not fill a word yet wait in carry, so the value depends on the
// bytes alone, never on how Send or Read calls cut the stream. Each step is a
// bijection of the word it folds, so changing any one byte changes the digest.
type digest struct {
	h     uint64
	carry uint64 // pending bytes, first byte lowest
	n     uint   // pending byte count, 0..7
}

const (
	digestBasis = 14695981039346656037 // FNV-1a 64-bit offset basis: the empty stream
	digestPrime = 1099511628211        // FNV 64-bit prime
)

// fold appends data to the digested stream.
//
//e2e:hotpath
func (d *digest) fold(data []byte) {
	if d.n > 0 {
		for len(data) > 0 && d.n < 8 {
			d.carry |= uint64(data[0]) << (8 * d.n)
			d.n++
			data = data[1:]
		}
		if d.n < 8 {
			return
		}
		d.h = (d.h ^ d.carry) * digestPrime
		d.carry, d.n = 0, 0
	}
	h := d.h
	for len(data) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(data)) * digestPrime
		data = data[8:]
	}
	d.h = h
	for i, b := range data {
		d.carry |= uint64(b) << (8 * uint(i))
	}
	d.n = uint(len(data))
}

// sum returns the digest of everything folded so far. A pending tail is
// folded in with its length, so trailing zero bytes count.
func (d *digest) sum() uint64 {
	if d.n == 0 {
		return d.h
	}
	return ((d.h^d.carry)*digestPrime ^ uint64(d.n)) * digestPrime
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

// take removes the first n bytes of the stream and appends them to dst. The
// caller guarantees the stream holds at least n bytes.
func (q *byteFIFO) take(dst []byte, n int) []byte {
	for n > 0 {
		front := q.chunks.Live()[0][q.off:]
		if len(front) > n {
			q.off += n
			return append(dst, front[:n]...)
		}
		dst = append(dst, front...)
		n -= len(front)
		q.chunks.Drop(1) // releases the sender's slice
		q.off = 0
	}
	return dst
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
