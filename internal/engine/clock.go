package engine

import (
	"time"

	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// Ticker is a handle to a scheduled periodic tick. Stop cancels future
// ticks; wall-clock implementations additionally wait for their tick
// goroutine to exit so stopping establishes a happens-before with the
// stopper.
type Ticker interface {
	Stop()
}

// Clock schedules the decision tick. The engine itself never reads a clock
// — virtual or wall time only ever enters through the `now` passed to each
// tick, which keeps the loop byte-for-byte deterministic under the sim and
// lets the real-TCP harness supply its own epoch.
type Clock interface {
	Tick(period time.Duration, fn func(now qstate.Time)) Ticker
}

// SimClock schedules ticks on the discrete-event simulator's virtual time.
type SimClock struct {
	Sim *sim.Sim
}

// Tick fires fn every period of virtual time, first at now+period.
func (c SimClock) Tick(period time.Duration, fn func(now qstate.Time)) Ticker {
	return sim.NewTicker(c.Sim, period, func(now sim.Time) {
		fn(qstate.Time(now))
	})
}
