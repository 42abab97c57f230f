// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives all userspace emulation in this repository: a virtual
// clock measured in nanoseconds, one queue of value-type events ordered by
// (time, insertion sequence), cancellable timers, and a seeded random source.
// Determinism is a design goal — running the same scenario twice produces
// byte-identical results, which is what makes the estimator-accuracy
// experiments reproducible.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It intentionally mirrors time.Duration's representation so the
// two convert trivially.
type Time int64

// Duration converts a virtual instant into the elapsed time.Duration since
// the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

// String formats the instant as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Handler is the target of an event: the model object that owns it. When the
// event fires the engine calls HandleEvent with the kind and argument it was
// scheduled with, and the model dispatches on kind — one switch per model in
// place of one closure per event. arg should be nil or pointer-shaped, which
// an interface holds without allocating.
type Handler interface {
	HandleEvent(kind int, arg any)
}

// Func adapts a plain callback to Handler: At and After schedule one, so a
// closure is just one more kind of event in the same queue.
type Func func()

// HandleEvent calls f.
func (f Func) HandleEvent(int, any) { f() }

// A pending event is two values: its key in the heap — pointer-free, so
// sifting copies three words and the collector never scans the heap — and the
// slot the key names, which holds what to call and where the key currently
// sits.
type key struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	slot int32
}

func (k key) before(o key) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

type slot struct {
	h    Handler
	arg  any
	kind int32
	pos  int32  // heap index of the key; on a free slot, the next free slot
	gen  uint32 // bumped when the event fires or is cancelled
}

// Timer is the handle to a scheduled event, for Cancel: a slot number and the
// generation the slot had when the event was scheduled. It is a plain value —
// most callers drop it — and the zero Timer refers to nothing. Once the event
// has fired or been cancelled its slot moves to the next generation, so a
// handle kept past that point can never cancel the slot's next tenant.
type Timer struct {
	slot int32
	gen  uint32
}

// Sim is a discrete-event simulator. The zero value is not ready for use;
// construct with New.
//
// A Sim (clock, event heap and random source) is confined to a single
// goroutine: all scheduling and Run/Step calls must come from the same
// goroutine, and the *rand.Rand returned by Rand must never be shared with
// another simulator. Distinct Sim instances are fully independent — running
// many of them on separate goroutines is safe and is how the figures
// package parallelizes experiment sweeps.
type Sim struct {
	now     Time
	seq     uint64
	heap    []key
	slots   []slot // slots[0] is unused: the zero Timer refers to nothing
	free    int32  // head of the free-slot list, 0 when empty
	rng     *rand.Rand
	stopped bool

	// Stats
	fired uint64
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), slots: make([]slot, 1)}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.heap) }

// Fired returns the total number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Post schedules h.HandleEvent(kind, arg) at virtual time t. Scheduling in
// the past panics: it indicates a logic error in the model, and silently
// clamping would warp measured delays.
//
//e2e:hotpath
func (s *Sim) Post(t Time, h Handler, kind int, arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	i := s.free
	if i != 0 {
		s.free = s.slots[i].pos
	} else {
		i = int32(len(s.slots))
		//lint:ignore e2elint/hotpath the slot table grows to the peak number of pending events, then is reused
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[i]
	sl.h, sl.arg, sl.kind = h, arg, int32(kind)
	//lint:ignore e2elint/hotpath the heap grows to the peak number of pending events, then is reused
	s.heap = append(s.heap, key{at: t, seq: s.seq, slot: i})
	s.seq++
	s.up(len(s.heap) - 1)
	return Timer{slot: i, gen: sl.gen}
}

var errNilFunc = errors.New("sim: nil event func")

// At schedules fn to run at virtual time t.
//
//e2e:hotpath
func (s *Sim) At(t Time, fn func()) Timer {
	if fn == nil {
		panic(errNilFunc)
	}
	return s.Post(t, Func(fn), 0, nil)
}

// After schedules fn to run d from now. Negative d is treated as zero.
//
//e2e:hotpath
func (s *Sim) After(d time.Duration, fn func()) Timer {
	return s.At(s.now.Add(max(d, 0)), fn)
}

// Cancel removes the event tm refers to from the queue and reports whether it
// did, as time.Timer.Stop does: false means the event already fired or was
// already cancelled (or tm is the zero Timer), and nothing changed.
func (s *Sim) Cancel(tm Timer) bool {
	if tm.slot == 0 || s.slots[tm.slot].gen != tm.gen {
		return false
	}
	s.remove(int(s.slots[tm.slot].pos))
	s.release(tm.slot)
	return true
}

// Step executes the next event, advancing the clock to its scheduled time.
// It reports whether an event was executed.
//
//e2e:hotpath
func (s *Sim) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	k := s.heap[0]
	s.remove(0)
	sl := s.slots[k.slot]
	// Before the callback, so that cancelling its own handle from inside it
	// reports "already fired".
	s.release(k.slot)
	s.now = k.at
	s.fired++
	sl.h.HandleEvent(int(sl.kind), sl.arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t (even if the queue drained earlier). Events scheduled at
// exactly t do run.
func (s *Sim) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor is shorthand for RunUntil(Now()+d).
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Stop makes the currently executing Run/RunUntil return after the current
// event completes.
func (s *Sim) Stop() { s.stopped = true }

// NextAt returns the scheduled time of the next pending event and whether
// one exists.
func (s *Sim) NextAt() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// release ends a slot's tenancy: handles to it go stale, what it referred to
// is dropped, and it joins the free list.
func (s *Sim) release(i int32) {
	s.slots[i] = slot{pos: s.free, gen: s.slots[i].gen + 1}
	s.free = i
}

// remove deletes the key at heap index i.
func (s *Sim) remove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		s.heap[i] = last
		s.down(i)
		s.up(i)
	}
}

// place stores k at heap index i and records the position in its slot.
func (s *Sim) place(i int, k key) {
	s.heap[i] = k
	s.slots[k.slot].pos = int32(i)
}

func (s *Sim) up(i int) {
	k := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, k)
}

func (s *Sim) down(i int) {
	k := s.heap[i]
	for n := len(s.heap); ; {
		m := 2*i + 1 // the earlier of i's children
		if m+1 < n && s.heap[m+1].before(s.heap[m]) {
			m++
		}
		if m >= n || !s.heap[m].before(k) {
			break
		}
		s.place(i, s.heap[m])
		i = m
	}
	s.place(i, k)
}
