package qstate

import "testing"

// FuzzWireRoundTrip: any 36 bytes decode to a state that re-encodes to the
// same bytes (the codec is a bijection on the wire domain).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(make([]byte, WireSize))
	seed := make([]byte, WireSize)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != WireSize {
			if _, err := DecodeWire(data); err == nil {
				t.Fatalf("%d-byte buffer accepted", len(data))
			}
			return
		}
		ws, err := DecodeWire(data)
		if err != nil {
			t.Fatalf("decode of full buffer failed: %v", err)
		}
		var out [WireSize]byte
		_, _ = EncodeWire(out[:], ws)
		for i := 0; i < WireSize; i++ {
			if out[i] != data[i] {
				t.Fatalf("byte %d: %x != %x", i, out[i], data[i])
			}
		}
	})
}

// FuzzWireAvgs: arbitrary snapshot pairs must never produce negative or
// NaN-bearing averages, and never panic.
func FuzzWireAvgs(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(1000), uint32(5), uint32(900))
	f.Fuzz(func(t *testing.T, t0, n0, i0, t1, n1, i1 uint32) {
		a := WireAvgs(WireQueue{t0, n0, i0}, WireQueue{t1, n1, i1})
		if a.Valid {
			if a.Latency < 0 || a.Throughput < 0 || a.Q < 0 {
				t.Fatalf("negative averages from valid interval: %+v", a)
			}
		}
	})
}
