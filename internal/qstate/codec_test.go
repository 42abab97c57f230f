package qstate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWireRoundTrip(t *testing.T) {
	w := WireState{
		Unacked:  WireQueue{TimeUS: 1, Total: 2, IntegralUS: 3},
		Unread:   WireQueue{TimeUS: 4, Total: 5, IntegralUS: 6},
		AckDelay: WireQueue{TimeUS: math.MaxUint32, Total: 0, IntegralUS: 7},
	}
	var buf [WireSize]byte
	n, err := EncodeWire(buf[:], w)
	if err != nil || n != WireSize {
		t.Fatalf("EncodeWire = %d, %v", n, err)
	}
	got, err := DecodeWire(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("round trip: got %+v, want %+v", got, w)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	check := func(a, b, c, d, e, f, g, h, i uint32) bool {
		w := WireState{
			Unacked:  WireQueue{a, b, c},
			Unread:   WireQueue{d, e, f},
			AckDelay: WireQueue{g, h, i},
		}
		var buf [WireSize]byte
		n, err := EncodeWire(buf[:], w)
		if err != nil || n != WireSize {
			return false
		}
		got, err := DecodeWire(buf[:])
		return err == nil && got == w
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizeIs36(t *testing.T) {
	// §3.2: "Each party thus shares 36 bytes with its peer per exchange."
	if WireSize != 36 {
		t.Fatalf("WireSize = %d, want 36", WireSize)
	}
	if n, err := EncodeWire(make([]byte, 64), WireState{}); err != nil || n != 36 {
		t.Fatalf("encoded size = %d, %v; want 36", n, err)
	}
}

func TestEncodeDecodeShortBuffer(t *testing.T) {
	if _, err := EncodeWire(make([]byte, 35), WireState{}); err != ErrShortBuffer {
		t.Fatalf("EncodeWire short: %v", err)
	}
	// DecodeWire accepts exactly one encoded state: truncated buffers and
	// oversized ones — a stream with trailing bytes, two states, a
	// histogram-sized payload — are all rejected.
	for _, n := range []int{0, 1, 35, 37, 72, 829} {
		want := ErrSizeMismatch
		if n < WireSize {
			want = ErrShortBuffer
		}
		if _, err := DecodeWire(make([]byte, n)); err != want {
			t.Errorf("DecodeWire(%d bytes) = %v, want %v", n, err, want)
		}
	}
	w := WireState{AckDelay: WireQueue{TimeUS: 1, Total: 2, IntegralUS: 3}}
	var buf [WireSize]byte
	if _, err := EncodeWire(buf[:], w); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeWire(buf[:]); err != nil || got != w {
		t.Fatalf("DecodeWire(36 bytes) = %+v, %v; want %+v", got, err, w)
	}
}

func TestToWireScalesUnits(t *testing.T) {
	s := Snapshot{Time: 5_000_000, Total: 42, Integral: 9_000_000}
	w := ToWire(s)
	if w.TimeUS != 5000 || w.Total != 42 || w.IntegralUS != 9000 {
		t.Fatalf("ToWire = %+v", w)
	}
}

func TestWireAvgsMatchesGetAvgs(t *testing.T) {
	// Build a schedule, compute avgs both in full precision and via the
	// 32-bit wire format; they should agree to µs resolution.
	var s State
	s.Init(0)
	start := s.Snapshot(0)
	now := Time(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		now += Time(1000 * (1 + rng.Int63n(50))) // µs-aligned steps
		if s.Size > 0 && rng.Intn(2) == 0 {
			s.Track(now, -1)
		} else {
			s.Track(now, 1)
		}
	}
	end := s.Snapshot(now)
	exact := GetAvgs(start, end)
	wire := WireAvgs(ToWire(start), ToWire(end))
	if !exact.Valid || !wire.Valid {
		t.Fatal("expected valid intervals")
	}
	if wire.Departures != exact.Departures {
		t.Fatalf("departures %d vs %d", wire.Departures, exact.Departures)
	}
	relErr := math.Abs(float64(wire.Latency-exact.Latency)) / float64(exact.Latency)
	if relErr > 0.01 {
		t.Fatalf("wire latency %v vs exact %v", wire.Latency, exact.Latency)
	}
	if math.Abs(wire.Throughput-exact.Throughput)/exact.Throughput > 0.01 {
		t.Fatalf("wire throughput %v vs exact %v", wire.Throughput, exact.Throughput)
	}
}

// TestWireAvgsSurvivesWrap: deltas remain correct when the 32-bit counters
// wrap once between exchanges — the property that makes 4-byte counters
// sufficient.
func TestWireAvgsSurvivesWrap(t *testing.T) {
	prev := WireQueue{TimeUS: math.MaxUint32 - 100, Total: math.MaxUint32 - 5, IntegralUS: math.MaxUint32 - 1000}
	now := WireQueue{TimeUS: 900, Total: 5, IntegralUS: 9000}
	a := WireAvgs(prev, now)
	if !a.Valid {
		t.Fatal("wrapped interval reported invalid")
	}
	if a.Departures != 11 { // (maxuint32-5 .. wrap .. 5) = 11 departures
		t.Fatalf("departures = %d, want 11", a.Departures)
	}
	wantElapsed := time.Duration(1001) * time.Microsecond
	if a.Elapsed != wantElapsed {
		t.Fatalf("elapsed = %v, want %v", a.Elapsed, wantElapsed)
	}
	// dIntegral = 10001 µs·items over 11 departures
	dIntegral, dTotal := 10001.0, 11.0
	wantLatency := time.Duration(dIntegral / dTotal * 1000)
	if a.Latency != wantLatency {
		t.Fatalf("latency = %v, want %v", a.Latency, wantLatency)
	}
}

func TestWireAvgsRejectsReordered(t *testing.T) {
	prev := WireQueue{TimeUS: 1000, Total: 10, IntegralUS: 100}
	now := WireQueue{TimeUS: 500, Total: 8, IntegralUS: 50} // older exchange
	if a := WireAvgs(prev, now); a.Valid {
		t.Fatal("reordered exchange produced a valid estimate")
	}
	// Same timestamps: duplicate.
	if a := WireAvgs(prev, prev); a.Valid {
		t.Fatal("duplicate exchange produced a valid estimate")
	}
}

func TestWireAvgsIdle(t *testing.T) {
	prev := WireQueue{TimeUS: 0, Total: 0, IntegralUS: 0}
	now := WireQueue{TimeUS: 1000, Total: 0, IntegralUS: 500}
	a := WireAvgs(prev, now)
	if a.Valid {
		t.Fatal("no departures should be invalid")
	}
	if a.Q != 0.5 {
		t.Fatalf("Q = %v, want 0.5", a.Q)
	}
}

func BenchmarkTrack(b *testing.B) {
	var s State
	s.Init(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Track(Time(i)*2, 1)
		s.Track(Time(i)*2+1, -1)
	}
}

func BenchmarkGetAvgs(b *testing.B) {
	prev := Snapshot{Time: 0, Total: 0, Integral: 0}
	now := Snapshot{Time: 1 << 30, Total: 1 << 20, Integral: 1 << 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GetAvgs(prev, now)
	}
}

func BenchmarkCodecEncodeDecode(b *testing.B) {
	w := WireState{
		Unacked:  WireQueue{1, 2, 3},
		Unread:   WireQueue{4, 5, 6},
		AckDelay: WireQueue{7, 8, 9},
	}
	var buf [WireSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = EncodeWire(buf[:], w)
		_, _ = DecodeWire(buf[:])
	}
}
