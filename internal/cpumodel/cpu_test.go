package cpumodel

import (
	"testing"
	"time"

	"e2ebatch/internal/sim"
)

func TestExecRunsAfterCost(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	var doneAt sim.Time
	c.Exec(10*time.Nanosecond, sim.Func(func() { doneAt = s.Now() }), 0, nil)
	s.Run()
	if doneAt != 10 {
		t.Fatalf("done at %v, want 10", doneAt)
	}
}

func TestExecFIFOQueueing(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	var finishes []sim.Time
	rec := func() { finishes = append(finishes, s.Now()) }
	c.Exec(10*time.Nanosecond, sim.Func(rec), 0, nil)
	c.Exec(5*time.Nanosecond, sim.Func(rec), 0, nil)
	c.Exec(1*time.Nanosecond, sim.Func(rec), 0, nil)
	s.Run()
	want := []sim.Time{10, 15, 16}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestExecAfterIdleStartsNow(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	c.Exec(10*time.Nanosecond, nil, 0, nil)
	s.RunUntil(100)
	var doneAt sim.Time
	c.Exec(5*time.Nanosecond, sim.Func(func() { doneAt = s.Now() }), 0, nil)
	s.Run()
	if doneAt != 105 {
		t.Fatalf("done at %v, want 105 (no stale backlog)", doneAt)
	}
}

func TestExecZeroAndNegativeCost(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	ran := 0
	c.Exec(0, sim.Func(func() { ran++ }), 0, nil)
	c.Exec(-time.Second, sim.Func(func() { ran++ }), 0, nil)
	s.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if c.BusyTime() != 0 {
		t.Fatalf("busy = %v, want 0", c.BusyTime())
	}
}

func TestExecNilDone(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	finish := c.Exec(7*time.Nanosecond, nil, 0, nil)
	if finish != 7 {
		t.Fatalf("finish = %v, want 7", finish)
	}
	s.Run()
}

func TestBacklog(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	if c.Backlog() != 0 {
		t.Fatal("fresh CPU has backlog")
	}
	c.Exec(100*time.Nanosecond, nil, 0, nil)
	c.Exec(50*time.Nanosecond, nil, 0, nil)
	if c.Backlog() != 150*time.Nanosecond {
		t.Fatalf("backlog = %v, want 150ns", c.Backlog())
	}
	s.RunUntil(120)
	if c.Backlog() != 30*time.Nanosecond {
		t.Fatalf("backlog = %v, want 30ns", c.Backlog())
	}
}

func TestUtilizationWindows(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	c.Exec(50*time.Nanosecond, nil, 0, nil)
	s.RunUntil(100)
	if got := c.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	// Second window: idle.
	s.RunUntil(200)
	if got := c.Utilization(); got != 0 {
		t.Fatalf("idle utilization = %v, want 0", got)
	}
}

func TestUtilizationZeroWindow(t *testing.T) {
	s := sim.New(1)
	c := New(s, "app")
	if got := c.Utilization(); got != 0 {
		t.Fatalf("zero-window utilization = %v", got)
	}
}

func TestJobsAndBusyTime(t *testing.T) {
	s := sim.New(1)
	c := New(s, "x")
	c.Exec(3*time.Nanosecond, nil, 0, nil)
	c.Exec(4*time.Nanosecond, nil, 0, nil)
	s.Run()
	if c.Jobs() != 2 {
		t.Fatalf("jobs = %d", c.Jobs())
	}
	if c.BusyTime() != 7*time.Nanosecond {
		t.Fatalf("busy = %v", c.BusyTime())
	}
	if c.Name() != "x" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestCostsBatchFormula(t *testing.T) {
	c := Costs{PerItem: 2 * time.Microsecond, PerBatch: 4 * time.Microsecond, PerByteNS: 1}
	// Figure 1's model: batch of n=3 costs n·α + β (+ bytes).
	got := c.Batch(3, 100)
	want := 4*time.Microsecond + 3*2*time.Microsecond + 100*time.Nanosecond
	if got != want {
		t.Fatalf("Batch = %v, want %v", got, want)
	}
	if c.Item(100) != c.Batch(1, 100) {
		t.Fatal("Item != Batch(1, ...)")
	}
	if c.Batch(0, 0) != 0 {
		t.Fatal("empty batch should cost 0")
	}
}

func TestCostsSubNanosecondPerByte(t *testing.T) {
	c := Costs{PerByteNS: 0.25}
	if got := c.Batch(0, 16384); got != 4096*time.Nanosecond {
		t.Fatalf("Batch = %v, want 4096ns", got)
	}
}

func TestCostsNegativeInputsClamped(t *testing.T) {
	c := Costs{PerItem: 10, PerBatch: 20, PerByteNS: 1}
	if got := c.Batch(-5, -100); got != 0 {
		t.Fatalf("Batch(-5,-100) = %v, want 0", got)
	}
	if got := c.Batch(1, -100); got != 30 {
		t.Fatalf("Batch(1,-100) = %v, want 30ns", got)
	}
}

func TestCostsScale(t *testing.T) {
	c := Costs{PerItem: 10, PerBatch: 20, PerByteNS: 2}
	g := c.Scale(2.5)
	if g.PerItem != 25 || g.PerBatch != 50 || g.PerByteNS != 5 {
		t.Fatalf("Scale = %+v", g)
	}
}
