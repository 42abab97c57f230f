package hints

import (
	"sync"
	"testing"
	"time"

	"e2ebatch/internal/qstate"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ now qstate.Time }

func (f *fakeClock) fn() Clock { return func() qstate.Time { return f.now } }

func (f *fakeClock) advance(d time.Duration) { f.now += qstate.Time(d) }

func TestCreateCompleteLatency(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	prev := tr.Snapshot()

	// Ten requests, each outstanding exactly 200µs, issued sequentially.
	for i := 0; i < 10; i++ {
		tr.Create(1)
		clk.advance(200 * time.Microsecond)
		tr.Complete(1)
		clk.advance(800 * time.Microsecond)
	}
	a := qstate.GetAvgs(prev, tr.Snapshot())
	if !a.Valid {
		t.Fatal("sample invalid")
	}
	if a.Latency != 200*time.Microsecond {
		t.Fatalf("latency = %v, want 200µs", a.Latency)
	}
	// 10 requests in 10ms = 1000 RPS.
	if a.Throughput < 999 || a.Throughput > 1001 {
		t.Fatalf("throughput = %v, want ~1000", a.Throughput)
	}
}

func TestBatchedCreateComplete(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	prev := tr.Snapshot()
	if at := tr.Create(5); at != clk.now {
		t.Fatalf("Create returned %v, want its clock reading %v", at, clk.now)
	}
	clk.advance(time.Millisecond)
	if at := tr.Complete(5); at != clk.now {
		t.Fatalf("Complete returned %v, want its clock reading %v", at, clk.now)
	}
	clk.advance(time.Millisecond)
	a := qstate.GetAvgs(prev, tr.Snapshot())
	if a.Latency != time.Millisecond {
		t.Fatalf("latency = %v, want 1ms", a.Latency)
	}
	if a.Departures != 5 {
		t.Fatalf("departures = %d, want 5", a.Departures)
	}
}

func TestOutstanding(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	tr.Create(3)
	tr.Complete(1)
	if got := tr.Outstanding(); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
}

func TestNonPositiveCountsIgnored(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	tr.Create(0)
	tr.Create(-5)
	tr.Complete(0)
	tr.Complete(-2)
	if tr.Outstanding() != 0 {
		t.Fatal("non-positive counts changed state")
	}
}

func TestOverCompletePanics(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	tr.Create(1)
	defer func() {
		if recover() == nil {
			t.Fatal("completing more than outstanding did not panic")
		}
	}()
	tr.Complete(2)
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock did not panic")
		}
	}()
	NewTracker(nil)
}

func TestWireForm(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	tr.Create(2)
	clk.advance(10 * time.Microsecond)
	tr.Complete(2)
	clk.advance(90 * time.Microsecond)
	w := tr.Wire()
	if w.Total != 2 {
		t.Fatalf("wire total = %d, want 2", w.Total)
	}
	if w.TimeUS != 100 {
		t.Fatalf("wire time = %dµs, want 100", w.TimeUS)
	}
	if w.IntegralUS != 20 {
		t.Fatalf("wire integral = %d, want 20 item·µs", w.IntegralUS)
	}
}

// TestEstimatorIdleInterval: the estimate over an interval with no
// completions is invalid — Little's law has no departures to divide by.
func TestEstimatorIdleInterval(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracker(clk.fn())
	prev := tr.Snapshot()
	clk.advance(time.Second)
	if a := qstate.GetAvgs(prev, tr.Snapshot()); a.Valid {
		t.Fatal("idle interval reported valid")
	}
}

func TestConcurrentUse(t *testing.T) {
	// The tracker must be race-free under concurrent create/complete; the
	// fake clock is guarded by the tracker's own mutex ordering here, so
	// use a monotonic-ish atomic-free real clock instead.
	start := time.Now()
	tr := NewTracker(func() qstate.Time { return qstate.Time(time.Since(start)) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Create(1)
				tr.Complete(1)
			}
		}()
	}
	wg.Wait()
	if tr.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after balanced ops", tr.Outstanding())
	}
	if got := tr.Snapshot().Total; got != 8000 {
		t.Fatalf("total = %d, want 8000", got)
	}
}
