package tcpsim

import "encoding/binary"

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
	chunks [][]byte // chunks[head:] are live; chunks[head][off:] is the front
	head   int
	off    int
}

// push appends data to the stream without copying it.
func (q *byteFIFO) push(data []byte) {
	if q.head > 0 && len(q.chunks) == cap(q.chunks) {
		// Slide the live chunks down instead of growing: the backing
		// array stays as large as the deepest backlog seen.
		n := copy(q.chunks, q.chunks[q.head:])
		clear(q.chunks[n:])
		q.chunks, q.head = q.chunks[:n], 0
	}
	q.chunks = append(q.chunks, data)
}

// take removes the first n bytes of the stream and appends them to dst. The
// caller guarantees the stream holds at least n bytes.
func (q *byteFIFO) take(dst []byte, n int) []byte {
	for n > 0 {
		front := q.chunks[q.head][q.off:]
		if len(front) > n {
			q.off += n
			return append(dst, front[:n]...)
		}
		dst = append(dst, front...)
		n -= len(front)
		q.chunks[q.head] = nil // release the sender's slice
		q.head++
		q.off = 0
	}
	return dst
}
