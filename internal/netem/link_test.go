package netem

import (
	"fmt"
	"testing"
	"time"

	"e2ebatch/internal/sim"
)

func gbpsCfg(gbps int64, prop time.Duration) Config {
	return Config{BitsPerSec: gbps * 1_000_000_000, Propagation: prop}
}

func TestSendDeliversAfterSerializationAndPropagation(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", gbpsCfg(1, 100*time.Nanosecond)) // 1 Gbps: 8ns/byte
	var at sim.Time
	p.Send(125, sim.Func(func() { at = s.Now() }), 0, nil) // 125B = 1000 bits = 1µs at 1Gbps
	s.Run()
	want := sim.Time(0).Add(time.Microsecond + 100*time.Nanosecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSendFIFOSerialization(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", gbpsCfg(1, 0))
	var arrivals []sim.Time
	rec := func() { arrivals = append(arrivals, s.Now()) }
	p.Send(125, sim.Func(rec), 0, nil) // finishes serializing at 1µs
	p.Send(125, sim.Func(rec), 0, nil) // queues behind: 2µs
	s.Run()
	if arrivals[0] != sim.Time(time.Microsecond) || arrivals[1] != sim.Time(2*time.Microsecond) {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestSendAfterIdleNoStaleQueue(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", gbpsCfg(1, 0))
	p.Send(125, sim.Func(func() {}), 0, nil)
	s.RunUntil(sim.Time(10 * time.Microsecond))
	var at sim.Time
	p.Send(125, sim.Func(func() { at = s.Now() }), 0, nil)
	s.Run()
	if at != sim.Time(11*time.Microsecond) {
		t.Fatalf("delivered at %v, want 11µs", at)
	}
}

func TestInfiniteRate(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", Config{Propagation: 5 * time.Nanosecond})
	var at sim.Time
	p.Send(1<<20, sim.Func(func() { at = s.Now() }), 0, nil)
	s.Run()
	if at != 5 {
		t.Fatalf("delivered at %v, want 5 (no serialization)", at)
	}
}

func TestPerPacketOverhead(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", Config{PerPacketOverhead: 10 * time.Nanosecond})
	var at sim.Time
	p.Send(100, sim.Func(func() { at = s.Now() }), 0, nil)
	s.Run()
	if at != 10 {
		t.Fatalf("delivered at %v, want 10", at)
	}
}

func TestQueueDelay(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", gbpsCfg(1, 0))
	if p.QueueDelay() != 0 {
		t.Fatal("fresh pipe has queue delay")
	}
	p.Send(1250, sim.Func(func() {}), 0, nil) // 10µs serialization
	if p.QueueDelay() != 10*time.Microsecond {
		t.Fatalf("queue delay = %v, want 10µs", p.QueueDelay())
	}
}

func TestStats(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", Config{})
	p.Send(10, sim.Func(func() {}), 0, nil)
	p.Send(20, sim.Func(func() {}), 0, nil)
	pk, by, dr := p.Stats()
	if pk != 2 || by != 30 || dr != 0 {
		t.Fatalf("stats = %d,%d,%d", pk, by, dr)
	}
}

func TestLossDropsAndNeverDelivers(t *testing.T) {
	s := sim.New(1)
	p := NewPipe(s, "t", Config{LossProb: 1.0 - 1e-12})
	delivered := 0
	for i := 0; i < 100; i++ {
		p.Send(10, sim.Func(func() { delivered++ }), 0, nil)
	}
	s.Run()
	_, _, dr := p.Stats()
	if dr == 0 {
		t.Fatal("no drops with ~certain loss")
	}
	if delivered != 100-int(dr) {
		t.Fatalf("delivered %d with %d drops", delivered, dr)
	}
}

// TestLossProbBoundaries pins the valid range [0, 1) exactly: both
// boundaries, both sides of each, and the same contract on the runtime
// knob. LossProb == 1 in particular used to reach the panic only through a
// convoluted double branch — it must reject like any other out-of-range
// value.
func TestLossProbBoundaries(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := sim.New(1)
	for _, p := range []float64{0, 1e-12, 0.5, 1 - 1e-12} {
		NewPipe(s, "ok", Config{LossProb: p}) // must not panic
	}
	for _, p := range []float64{-1e-12, -0.5, 1, 1.5} {
		p := p
		mustPanic(fmt.Sprintf("NewPipe(LossProb=%v)", p), func() {
			NewPipe(s, "bad", Config{LossProb: p})
		})
	}
	pipe := NewPipe(s, "knob", Config{})
	pipe.SetLossProb(0.25)
	if pipe.LossProb() != 0.25 {
		t.Fatalf("LossProb = %v after SetLossProb(0.25)", pipe.LossProb())
	}
	mustPanic("SetLossProb(1)", func() { pipe.SetLossProb(1) })
	mustPanic("SetLossProb(-0.1)", func() { pipe.SetLossProb(-0.1) })
	if pipe.LossProb() != 0.25 {
		t.Fatalf("rejected SetLossProb mutated the pipe: %v", pipe.LossProb())
	}
}

// TestRuntimeKnobsAffectTraffic: loss and jitter set mid-run via the Link
// setters take effect and restore cleanly.
func TestRuntimeKnobsAffectTraffic(t *testing.T) {
	s := sim.New(5)
	l := NewLink(s, "lnk", Config{Propagation: 100 * time.Nanosecond})
	delivered := 0
	for i := 0; i < 50; i++ {
		l.AtoB.Send(10, sim.Func(func() { delivered++ }), 0, nil)
	}
	s.Run()
	if delivered != 50 {
		t.Fatalf("lossless phase delivered %d/50", delivered)
	}
	l.SetLossProb(1 - 1e-12)
	for i := 0; i < 50; i++ {
		l.AtoB.Send(10, sim.Func(func() { delivered++ }), 0, nil)
	}
	s.Run()
	_, _, dr := l.AtoB.Stats()
	if dr == 0 {
		t.Fatal("no drops after SetLossProb")
	}
	l.SetLossProb(0)
	l.SetJitter(time.Microsecond)
	if l.AtoB.Jitter() != time.Microsecond || l.BtoA.Jitter() != time.Microsecond {
		t.Fatal("SetJitter did not reach both pipes")
	}
	l.SetJitter(-time.Second)
	if l.AtoB.Jitter() != 0 {
		t.Fatalf("negative jitter not clamped: %v", l.AtoB.Jitter())
	}
}

func TestJitterAddsBoundedDelay(t *testing.T) {
	s := sim.New(1)
	cfg := Config{Propagation: 100 * time.Nanosecond, Jitter: 50 * time.Nanosecond}
	p := NewPipe(s, "t", cfg)
	for i := 0; i < 200; i++ {
		sent := s.Now()
		p.Send(0, sim.Func(func() {}), 0, nil)
		arr, ok := s.NextAt()
		if !ok {
			t.Fatal("no event")
		}
		d := arr.Sub(sent)
		if d < 100*time.Nanosecond || d >= 150*time.Nanosecond {
			t.Fatalf("delay %v outside [100ns,150ns)", d)
		}
		s.Run()
	}
}

func TestLinkIsFullDuplex(t *testing.T) {
	s := sim.New(1)
	l := NewLink(s, "lnk", gbpsCfg(1, 0))
	var a2b, b2a sim.Time
	l.AtoB.Send(125, sim.Func(func() { a2b = s.Now() }), 0, nil)
	l.BtoA.Send(125, sim.Func(func() { b2a = s.Now() }), 0, nil)
	s.Run()
	// The directions must not serialize behind each other.
	if a2b != sim.Time(time.Microsecond) || b2a != sim.Time(time.Microsecond) {
		t.Fatalf("a2b=%v b2a=%v, want both 1µs", a2b, b2a)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BitsPerSec != 100_000_000_000 {
		t.Fatalf("default rate = %d", cfg.BitsPerSec)
	}
	if cfg.Propagation <= 0 {
		t.Fatal("default propagation not positive")
	}
}

func TestJitterNeverReorders(t *testing.T) {
	s := sim.New(3)
	p := NewPipe(s, "t", Config{Propagation: 100 * time.Nanosecond, Jitter: 5 * time.Microsecond})
	var order []int
	for i := 0; i < 500; i++ {
		i := i
		p.Send(10, sim.Func(func() { order = append(order, i) }), 0, nil)
	}
	s.Run()
	if len(order) != 500 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered delivery at %d: got %d (jitter must preserve FIFO)", i, v)
		}
	}
}

func TestJitteredArrivalsMonotonic(t *testing.T) {
	s := sim.New(9)
	p := NewPipe(s, "t", Config{Propagation: time.Microsecond, Jitter: 10 * time.Microsecond})
	last := sim.Time(-1)
	ok := true
	for i := 0; i < 300; i++ {
		p.Send(1, sim.Func(func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}), 0, nil)
		s.RunFor(500 * time.Nanosecond)
	}
	s.Run()
	if !ok {
		t.Fatal("arrival times went backwards")
	}
}
