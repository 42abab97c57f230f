package shard

import (
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/qstate"
)

// Manual mode: a never-started group is a deterministic single-goroutine
// harness — Submit queues, Service drains and advances on explicit
// simulated timestamps.
func TestShardManualModeDeterministic(t *testing.T) {
	var now qstate.Time
	g := NewGroup(Config{Shards: 2, Tick: tick, Now: func() qstate.Time { return now }})
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	s := g.Shard(0)
	var order []string
	if !s.Submit(func() { order = append(order, "submitted") }) {
		t.Fatal("Submit refused on a live shard")
	}
	s.Wheel().Arm(&Timer{Fn: func(qstate.Time) { order = append(order, "fired") }}, 2*tick)
	now = at(1)
	s.Service(now)
	now = at(2)
	s.Service(now)
	if len(order) != 2 || order[0] != "submitted" || order[1] != "fired" {
		t.Fatalf("order = %v, want [submitted fired]", order)
	}
	st := s.Stats()
	if st.Services != 2 || st.Fired != 1 || st.Armed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	g.Stop()
	if s.Submit(func() {}) {
		t.Fatal("Submit accepted after Stop")
	}
}

func TestShardServiceBehindAccounting(t *testing.T) {
	var now qstate.Time
	g := NewGroup(Config{Shards: 1, Tick: tick, Now: func() qstate.Time { return now }})
	s := g.Shard(0)
	now = at(5) // 5 ticks due, 4 beyond the nominal one
	s.Service(now)
	st := s.Stats()
	if st.Behind != 4 || st.MaxBehind != 4 {
		t.Fatalf("behind = %d max = %d, want 4/4", st.Behind, st.MaxBehind)
	}
	now = at(6)
	s.Service(now)
	st = s.Stats()
	if st.Behind != 0 || st.MaxBehind != 4 {
		t.Fatalf("after catch-up: behind = %d max = %d, want 0/4", st.Behind, st.MaxBehind)
	}
}

func TestGroupOfHashesStably(t *testing.T) {
	g := NewGroup(Config{Shards: 4, Tick: tick, Now: func() qstate.Time { return 0 }})
	seen := map[int]bool{}
	for i := uint64(0); i < 256; i++ {
		a, b := g.Of(HashUint64(i)), g.Of(HashUint64(i))
		if a != b {
			t.Fatalf("Of not stable for key %d", i)
		}
		seen[a.ID()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 keys landed on %d of 4 shards — hash is degenerate", len(seen))
	}
}

// Started mode: the shard loop's driver ticker fires wheel timers with
// wall-clock timestamps; Stop drains and establishes happens-before for
// direct reads.
func TestGroupStartedLoopFiresTimers(t *testing.T) {
	g := NewGroup(Config{Shards: 2, Tick: time.Millisecond})
	var fires atomic.Int64
	for i := 0; i < g.Len(); i++ {
		s := g.Shard(i)
		tm := &Timer{Fn: func(qstate.Time) { fires.Add(1) }}
		s.Submit(func() { s.Wheel().ArmPeriodic(tm, time.Millisecond, 2*time.Millisecond) })
	}
	g.Start()
	deadline := time.Now().Add(2 * time.Second)
	for fires.Load() < 6 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	g.Stop()
	g.Stop() // idempotent
	if fires.Load() < 6 {
		t.Fatalf("only %d fires before deadline", fires.Load())
	}
	// Post-Stop the wheel is safe to read directly.
	for i := 0; i < g.Len(); i++ {
		if g.Shard(i).Wheel().Fired() == 0 {
			t.Errorf("shard %d wheel fired nothing", i)
		}
	}
}

func TestGroupStopRunsQueuedWork(t *testing.T) {
	g := NewGroup(Config{Shards: 1})
	g.Start()
	ran := make(chan struct{})
	g.Shard(0).Submit(func() { close(ran) })
	g.Stop()
	select {
	case <-ran:
	default:
		t.Fatal("work submitted before Stop never ran")
	}
}
