package qstate

import (
	"encoding/binary"
	"errors"
	"time"
)

// Wire format (§3.2): "Each party thus shares 36 bytes with its peer per
// exchange (three 4-byte counters per queue)" for its three queues. The
// counters are 32-bit and wrap; deltas between two successive exchanges are
// computed with modular arithmetic, so estimates stay correct across a
// single wrap of each counter — exactly the property that lets the exchange
// frequency be reduced "as needed" (§5) without loss of accuracy.
//
// Units on the wire: time in microseconds, total in items, integral in
// item·microseconds. At microsecond granularity the time counter wraps every
// ~71.6 minutes; any sane exchange interval is far below that.

// WireQueue is one queue's 3-tuple as carried on the wire.
type WireQueue struct {
	TimeUS     uint32 // snapshot time, µs, wrapping
	Total      uint32 // cumulative departures, items, wrapping
	IntegralUS uint32 // ∫ size dt, item·µs, wrapping
}

// WireState is one endpoint's full exchange payload: its three queues in the
// fixed order unacked, unread, ackdelay.
type WireState struct {
	Unacked  WireQueue
	Unread   WireQueue
	AckDelay WireQueue
}

// WireSize is the encoded size of a WireState in bytes.
const WireSize = 36

// ErrShortBuffer is returned by EncodeWire and DecodeWire when fewer than
// WireSize bytes are available.
var ErrShortBuffer = errors.New("qstate: buffer shorter than 36-byte wire state")

// ErrSizeMismatch is returned by DecodeWire when the buffer is longer than
// WireSize bytes.
var ErrSizeMismatch = errors.New("qstate: wire state payload must be exactly 36 bytes")

// ToWire converts a snapshot to wire units (ns → µs, wrapping to 32 bits).
func ToWire(s Snapshot) WireQueue {
	return WireQueue{
		TimeUS:     uint32(uint64(s.Time) / 1000),
		Total:      uint32(uint64(s.Total)),
		IntegralUS: uint32(uint64(s.Integral) / 1000),
	}
}

// EncodeWire serializes w into buf, which must hold at least WireSize bytes,
// and returns the number of bytes written.
func EncodeWire(buf []byte, w WireState) (int, error) {
	if len(buf) < WireSize {
		return 0, ErrShortBuffer
	}
	off := 0
	for _, q := range [3]WireQueue{w.Unacked, w.Unread, w.AckDelay} {
		binary.BigEndian.PutUint32(buf[off:], q.TimeUS)
		binary.BigEndian.PutUint32(buf[off+4:], q.Total)
		binary.BigEndian.PutUint32(buf[off+8:], q.IntegralUS)
		off += 12
	}
	return WireSize, nil
}

// DecodeWire parses a WireState from a buffer that must be exactly one
// encoded state, rejecting both truncated and oversized payloads instead of
// silently ignoring trailing bytes.
func DecodeWire(buf []byte) (WireState, error) {
	if len(buf) < WireSize {
		return WireState{}, ErrShortBuffer
	}
	if len(buf) != WireSize {
		return WireState{}, ErrSizeMismatch
	}
	var qs [3]WireQueue
	off := 0
	for i := range qs {
		qs[i] = WireQueue{
			TimeUS:     binary.BigEndian.Uint32(buf[off:]),
			Total:      binary.BigEndian.Uint32(buf[off+4:]),
			IntegralUS: binary.BigEndian.Uint32(buf[off+8:]),
		}
		off += 12
	}
	return WireState{Unacked: qs[0], Unread: qs[1], AckDelay: qs[2]}, nil
}

// WireAvgs is GetAvgs over two successive wire-format snapshots of the same
// queue, using wrap-aware 32-bit deltas. It is the receiver-side companion
// of ToWire: accuracy is preserved as long as each counter wrapped at most
// once between the exchanges.
func WireAvgs(prev, now WireQueue) Avgs {
	dtUS := now.TimeUS - prev.TimeUS // modular
	if dtUS == 0 || dtUS > 1<<31 {
		// Zero elapsed time, or "negative" (reordered/duplicate exchange).
		return Avgs{}
	}
	dTotal := now.Total - prev.Total
	dIntegral := now.IntegralUS - prev.IntegralUS
	if dTotal > 1<<31 || dIntegral > 1<<31 {
		// A backwards counter is possible only on reordering; discard.
		return Avgs{}
	}
	dt := time.Duration(dtUS) * time.Microsecond
	a := Avgs{
		Q:          float64(dIntegral) / float64(dtUS),
		Elapsed:    dt,
		Departures: int64(dTotal),
	}
	a.Throughput = float64(dTotal) / dt.Seconds()
	if dTotal == 0 {
		return a
	}
	a.Latency = time.Duration(float64(dIntegral) / float64(dTotal) * 1000) // µs → ns
	a.Valid = true
	return a
}
