// Fuzz targets need the native fuzzing engine of Go 1.18+; the build guard
// keeps the package testable with older toolchains (and lets the target be
// excluded the same way the corpus-driven CI jobs do).
//go:build go1.18

package qstate

import (
	"errors"
	"testing"
)

// FuzzWireStateRoundTrip is the struct→bytes→struct direction: every
// WireState must encode to exactly 36 bytes and decode back to itself —
// DecodeWire(EncodeWire(s)) == s for the full 9-counter domain.
func FuzzWireStateRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint32(1), uint32(2), uint32(3), uint32(4), uint32(5), uint32(6), uint32(7), uint32(8), uint32(9))
	f.Add(^uint32(0), ^uint32(0), ^uint32(0), uint32(1<<31), uint32(1<<31-1), ^uint32(0), uint32(0), ^uint32(0), uint32(42))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i, j uint32) {
		w := WireState{
			Unacked:  WireQueue{TimeUS: a, Total: b, IntegralUS: c},
			Unread:   WireQueue{TimeUS: d, Total: e, IntegralUS: g},
			AckDelay: WireQueue{TimeUS: h, Total: i, IntegralUS: j},
		}
		var buf [WireSize]byte
		n, err := EncodeWire(buf[:], w)
		if err != nil || n != WireSize {
			t.Fatalf("EncodeWire = %d, %v", n, err)
		}
		got, err := DecodeWire(buf[:])
		if err != nil {
			t.Fatalf("DecodeWire: %v", err)
		}
		if got != w {
			t.Fatalf("round trip: got %+v, want %+v", got, w)
		}
	})
}

// FuzzWireBufferSizes: DecodeWire accepts exactly WireSize bytes —
// truncated buffers are ErrShortBuffer, oversized ones ErrSizeMismatch — and
// an exact buffer always decodes without panicking.
func FuzzWireBufferSizes(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, WireSize-1))
	f.Add(make([]byte, WireSize))
	f.Add(make([]byte, WireSize+7))
	for _, n := range []int{1, WireSize + 1, 2 * WireSize, 829} {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		switch {
		case len(data) < WireSize:
			if _, err := DecodeWire(data); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("DecodeWire accepted %d bytes: %v", len(data), err)
			}
			if n, err := EncodeWire(data, WireState{}); !errors.Is(err, ErrShortBuffer) || n != 0 {
				t.Fatalf("EncodeWire wrote %d into %d bytes: %v", n, len(data), err)
			}
		case len(data) > WireSize:
			if _, err := DecodeWire(data); !errors.Is(err, ErrSizeMismatch) {
				t.Fatalf("DecodeWire accepted %d bytes: %v", len(data), err)
			}
		default:
			if _, err := DecodeWire(data); err != nil {
				t.Fatalf("DecodeWire of %d bytes: %v", len(data), err)
			}
		}
	})
}
