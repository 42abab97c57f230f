package sim

import "time"

// Ticker invokes a callback at a fixed virtual-time period, emulating the
// kernel tick granularity the paper suggests for batching-toggle decisions
// (§5 "Toggling Granularity"). Stop it to cease firing.
type Ticker struct {
	sim    *Sim
	period time.Duration
	fn     func(now Time)
	ev     Timer
	stop   bool
}

// NewTicker starts a ticker firing every period, first at now+period.
// It panics if period is not positive.
func NewTicker(s *Sim, period time.Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() { t.ev = t.sim.Post(t.sim.now.Add(t.period), t, 0, nil) }

// HandleEvent is one tick: run the callback, then re-arm unless it stopped
// the ticker.
func (t *Ticker) HandleEvent(int, any) {
	t.fn(t.sim.now)
	if !t.stop {
		t.arm()
	}
}

// Stop cancels future ticks. Safe to call multiple times and from within the
// tick callback, where the handle is already stale and only the flag acts.
func (t *Ticker) Stop() {
	t.stop = true
	t.sim.Cancel(t.ev)
}
