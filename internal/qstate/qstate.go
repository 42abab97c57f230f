// Package qstate implements the paper's queue-state counters: Algorithm 1
// (TRACK) and Algorithm 2 (GETAVGS).
//
// A State is the 4-tuple (time, size, total, integral) the paper maintains
// per monitored queue. Whenever the queue's population changes, Track is
// called with the (signed) number of items added or removed. Subtracting two
// snapshots yields — via Little's law — the queue's average occupancy Q,
// departure rate λ (which, for a lossless queue, is also its throughput),
// and queuing delay D = Q/λ over the interval between the snapshots.
//
// GETAVGS never reads the instantaneous size, so a (time, total, integral)
// 3-tuple snapshot contains everything a remote peer needs; Snapshot and the
// wire codec in codec.go implement the 36-byte-per-exchange metadata sharing
// of §3.2.
package qstate

import (
	"fmt"
	"time"
)

// Time is a virtual or real timestamp in nanoseconds. It matches sim.Time's
// representation; the package deliberately depends on neither the simulator
// nor the wall clock so the same counters run inside the simulation, inside
// the real-socket harness, and inside userspace hint libraries.
type Time int64

// State is Algorithm 1's queue state. The zero value is a valid initial
// state for a queue that is empty at time 0; use Init for a different start
// time.
//
// Fields are exported so the trace package can log them ethtool-style, but
// they must only be mutated through Track.
type State struct {
	Time     Time  // timestamp of the last update
	Size     int64 // current queue occupancy, in items
	Total    int64 // cumulative departures (items that left the queue)
	Integral int64 // time-weighted occupancy accumulator: ∫ size dt, item·ns
}

// Init resets the state to an empty queue observed at time now
// (Algorithm 1, line 1).
func (s *State) Init(now Time) {
	*s = State{Time: now}
}

// Track is Algorithm 1's TRACK procedure: record that nitems were added
// (positive) or removed (negative) at time now. Calling with nitems == 0 is
// allowed and simply advances the integral — the experiments use that to
// force a consistent snapshot point.
//
// Track panics if it would drive the queue size negative or if time moves
// backwards; both indicate instrumentation bugs that would silently corrupt
// every estimate derived later.
func (s *State) Track(now Time, nitems int64) {
	dt := now - s.Time
	if dt < 0 {
		panic(fmt.Sprintf("qstate: time moved backwards: %d -> %d", s.Time, now))
	}
	s.Time = now
	s.Integral += s.Size * int64(dt)
	s.Size += nitems
	if s.Size < 0 {
		panic(fmt.Sprintf("qstate: queue size went negative (%d) after delta %d", s.Size, nitems))
	}
	if nitems < 0 {
		s.Total += -nitems
	}
}

// Snapshot is the 3-tuple (time, total, integral) shared with the peer.
// Two successive snapshots are what GETAVGS consumes.
type Snapshot struct {
	Time     Time
	Total    int64
	Integral int64
}

// Snapshot captures the 3-tuple at time now, first advancing the integral so
// the snapshot is consistent at exactly now.
func (s *State) Snapshot(now Time) Snapshot {
	s.Track(now, 0)
	return Snapshot{Time: s.Time, Total: s.Total, Integral: s.Integral}
}

// Peek returns the 3-tuple as of the last Track call without advancing time.
// Useful when the caller cannot know "now" (e.g. decoding a peer's state).
func (s *State) Peek() Snapshot {
	return Snapshot{Time: s.Time, Total: s.Total, Integral: s.Integral}
}

// Avgs is the result of Algorithm 2's GETAVGS: averages over the interval
// between two snapshots.
type Avgs struct {
	Q          float64       // average queue occupancy, items
	Throughput float64       // λ: departures per second
	Latency    time.Duration // D = Q/λ: average queuing delay
	Elapsed    time.Duration // interval length, for confidence checks
	Departures int64         // raw departures in the interval
	Valid      bool          // false if the interval is empty or idle
}

// GetAvgs is Algorithm 2: given two successive snapshots of the same queue,
// compute average occupancy, throughput and — via Little's law — queuing
// delay over the interval between them.
//
// If no time elapsed, or nothing departed during the interval (λ = 0, delay
// undefined), the result has Valid == false with zeroed estimates; callers
// such as the EWMA-smoothed toggling policy skip invalid intervals rather
// than folding in a 0/0.
func GetAvgs(prev, now Snapshot) Avgs {
	dt := int64(now.Time - prev.Time)
	if dt <= 0 {
		return Avgs{}
	}
	dTotal := now.Total - prev.Total
	dIntegral := now.Integral - prev.Integral
	a := Avgs{
		Q:          float64(dIntegral) / float64(dt),
		Elapsed:    time.Duration(dt),
		Departures: dTotal,
	}
	a.Throughput = float64(dTotal) / (float64(dt) / float64(time.Second))
	if dTotal <= 0 {
		// Idle interval: Q may still be meaningful (items parked in the
		// queue) but D = Q/λ is undefined.
		return a
	}
	// D = Q/λ = (dIntegral/dt) / (dTotal/dt) = dIntegral/dTotal.
	a.Latency = time.Duration(float64(dIntegral) / float64(dTotal))
	a.Valid = true
	return a
}

// String renders the state for counter dumps.
func (s *State) String() string {
	return fmt.Sprintf("t=%d size=%d total=%d integral=%d", s.Time, s.Size, s.Total, s.Integral)
}
