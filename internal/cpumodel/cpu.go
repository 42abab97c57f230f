// Package cpumodel models execution contexts as FIFO service-time resources
// inside the discrete-event simulation.
//
// The paper's testbed pins two execution contexts per machine — the
// application thread (Redis or Lancet) and the network-stack softirq context
// — to dedicated cores (§4 Methodology). Each such context is one CPU here:
// work items queue behind each other, which is precisely the congestion that
// makes batching decisions matter (Figure 1 of the paper is three jobs
// queued on one server CPU).
package cpumodel

import (
	"fmt"
	"time"

	"e2ebatch/internal/sim"
)

// CPU is a single FIFO execution context. Work submitted with Exec runs for
// its cost after all previously submitted work completes. The zero value is
// unusable; construct with New.
type CPU struct {
	sim  *sim.Sim
	name string

	nextFree sim.Time
	busy     time.Duration // cumulative busy time
	jobs     uint64

	// window accounting for utilization sampling
	winBusyAt time.Duration
	winAt     sim.Time
}

// New returns a CPU attached to the simulator. The name appears in
// diagnostics and utilization reports.
func New(s *sim.Sim, name string) *CPU {
	return &CPU{sim: s, name: name}
}

// Name returns the CPU's diagnostic name.
func (c *CPU) Name() string { return c.name }

// Exec queues a work item costing cost and posts the completion event
// done.HandleEvent(kind, arg) at its completion time, which is returned; a
// nil done posts nothing. Zero or negative cost completes immediately after
// the queue drains.
//
//e2e:hotpath
func (c *CPU) Exec(cost time.Duration, done sim.Handler, kind int, arg any) sim.Time {
	cost = max(cost, 0)
	finish := max(c.sim.Now(), c.nextFree).Add(cost)
	c.nextFree = finish
	c.busy += cost
	c.jobs++
	if done != nil {
		c.sim.Post(finish, done, kind, arg)
	}
	return finish
}

// Backlog returns how long newly submitted work would wait before starting.
func (c *CPU) Backlog() time.Duration {
	now := c.sim.Now()
	if c.nextFree <= now {
		return 0
	}
	return c.nextFree.Sub(now)
}

// BusyTime returns the cumulative busy time scheduled so far (including work
// not yet finished in virtual time).
func (c *CPU) BusyTime() time.Duration { return c.busy }

// Jobs returns the number of work items executed.
func (c *CPU) Jobs() uint64 { return c.jobs }

// Utilization returns the fraction of time the CPU was busy during the
// window since the previous Utilization call (or since the start, for the
// first call), then resets the window. The result can marginally exceed 1
// when work scheduled inside the window completes after it.
func (c *CPU) Utilization() float64 {
	now := c.sim.Now()
	elapsed := now.Sub(c.winAt)
	busy := c.busy - c.winBusyAt
	c.winAt = now
	c.winBusyAt = c.busy
	if elapsed <= 0 {
		return 0
	}
	return float64(busy) / float64(elapsed)
}

// String summarizes the CPU state.
func (c *CPU) String() string {
	return fmt.Sprintf("cpu(%s): jobs=%d busy=%v backlog=%v", c.name, c.jobs, c.busy, c.Backlog())
}
