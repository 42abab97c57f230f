//go:build !race

// Allocation gate for the shard layer's //e2e:hotpath functions
// (DESIGN.md §13): wheel arm/cancel/advance and the shard's Service
// dispatch must not allocate — at 50k connections the wheel fires tens of
// thousands of callbacks per second, and any per-fire allocation would put
// the GC back on the control path the wheel exists to take it off of.
// Excluded under -race because the race runtime's shadow allocations would
// be charged to the tracked code.

package shard

import (
	"testing"
	"time"

	"e2ebatch/internal/allocgate"
	"e2ebatch/internal/qstate"
)

// gateFires is bumped by a package-level fire function so the gated loop
// carries no capturing closure of its own.
var gateFires int

func gateFire(qstate.Time) { gateFires++ }

func TestAllocGateWheelArmCancel(t *testing.T) {
	w := NewWheel(0, time.Millisecond)
	tm := &Timer{Fn: gateFire}
	allocgate.Zero(t, 200, "Wheel.Arm/Cancel", func() {
		w.Arm(tm, 5*time.Millisecond)
		w.Cancel(tm)
	})
}

func TestAllocGateWheelAdvance(t *testing.T) {
	// Periodic timers across several levels keep every Advance busy:
	// cascades, fires, and re-arms all run inside the measured region.
	w := NewWheel(0, time.Millisecond)
	timers := make([]Timer, 64)
	for i := range timers {
		timers[i].Fn = gateFire
		w.ArmPeriodic(&timers[i], time.Duration(i+1)*time.Millisecond,
			time.Duration(1+i%70)*time.Millisecond)
	}
	now := qstate.Time(0)
	allocgate.Zero(t, 200, "Wheel.Advance", func() {
		now += qstate.Time(17 * time.Millisecond)
		w.Advance(now)
	})
	if w.Fired() == 0 {
		t.Fatal("gate measured an idle wheel")
	}
}

func TestAllocGateShardService(t *testing.T) {
	var now qstate.Time
	g := NewGroup(Config{Shards: 1, Tick: time.Millisecond, Now: func() qstate.Time { return now }})
	s := g.Shard(0)
	timers := make([]Timer, 32)
	for i := range timers {
		timers[i].Fn = gateFire
		s.Wheel().ArmPeriodic(&timers[i], time.Millisecond, time.Duration(1+i%8)*time.Millisecond)
	}
	allocgate.Zero(t, 200, "Shard.Service", func() {
		now += qstate.Time(3 * time.Millisecond)
		s.Service(now)
	})
	if s.Stats().Fired == 0 {
		t.Fatal("gate measured an idle shard")
	}
}
