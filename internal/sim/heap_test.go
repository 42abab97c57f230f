package sim

import (
	"math/rand"
	"testing"
)

// heapModel is the reference the event queue is checked against: every
// scheduled event with its (time, seq) key, and whether it is still pending.
// The next event to fire is found by a linear scan, so the model shares no
// logic with the heap.
type heapModel struct {
	t       *testing.T
	s       *Sim
	rng     *rand.Rand
	at      []Time
	handle  []Timer
	pending []bool
	fired   []int // ids in firing order, appended by HandleEvent
}

// HandleEvent records the firing and, some of the time, acts from inside it:
// cancels its own handle (always too late), cancels another pending event,
// and schedules more — at the current instant too, which must queue behind
// everything already due now.
func (m *heapModel) HandleEvent(id int, _ any) {
	m.fired = append(m.fired, id)
	m.pending[id] = false
	if m.s.Cancel(m.handle[id]) {
		m.t.Fatalf("event %d cancelled its own handle while firing", id)
	}
	for m.rng.Intn(3) == 0 {
		if m.rng.Intn(2) == 0 {
			m.cancelRandom()
		} else {
			m.schedule()
		}
	}
}

func (m *heapModel) schedule() {
	id := len(m.at)
	at := m.s.Now() + Time(m.rng.Intn(8)) // a narrow range, so ties are common
	m.at = append(m.at, at)
	m.pending = append(m.pending, true)
	m.handle = append(m.handle, m.s.Post(at, m, id, nil))
}

// cancelRandom cancels any handle ever issued — pending, fired or already
// cancelled — and requires Cancel to say which it was.
func (m *heapModel) cancelRandom() {
	if len(m.at) == 0 {
		return
	}
	id := m.rng.Intn(len(m.at))
	if got := m.s.Cancel(m.handle[id]); got != m.pending[id] {
		m.t.Fatalf("Cancel(event %d) = %v, model says pending = %v", id, got, m.pending[id])
	}
	m.pending[id] = false
}

// next returns the pending event with the least (time, id); ids are issued in
// scheduling order, so id order is seq order.
func (m *heapModel) next() int {
	best := -1
	for id, p := range m.pending {
		if p && (best < 0 || m.at[id] < m.at[best]) {
			best = id
		}
	}
	return best
}

// TestHeapMatchesReferenceOrder: random interleavings of schedule, cancel,
// re-arm (cancel then schedule) and the same from inside firing events pop in
// exactly the (time, seq) order of the reference, same-time FIFO included,
// and every Cancel reports what the reference says.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		m := &heapModel{t: t, s: New(seed), rng: rand.New(rand.NewSource(seed))}
		for op := 0; op < 400; op++ {
			switch m.rng.Intn(5) {
			case 0, 1:
				m.schedule()
			case 2:
				m.cancelRandom()
			case 3:
				m.cancelRandom()
				m.schedule()
			case 4:
				want, n := m.next(), len(m.fired)
				if stepped := m.s.Step(); stepped != (want >= 0) {
					t.Fatalf("seed %d op %d: Step = %v with next pending %d", seed, op, stepped, want)
				}
				if want >= 0 && (len(m.fired) != n+1 || m.fired[n] != want || m.s.Now() != m.at[want]) {
					t.Fatalf("seed %d op %d: fired %v at %v, want event %d at %v", seed, op, m.fired[n:], m.s.Now(), want, m.at[want])
				}
			}
			live := 0
			for _, p := range m.pending {
				if p {
					live++
				}
			}
			if m.s.Pending() != live {
				t.Fatalf("seed %d op %d: Pending = %d, model has %d", seed, op, m.s.Pending(), live)
			}
		}
		for want := m.next(); want >= 0; want = m.next() {
			n := len(m.fired)
			if !m.s.Step() || m.fired[n] != want {
				t.Fatalf("seed %d drain: fired %v, want %d first", seed, m.fired[n:], want)
			}
		}
		if m.s.Step() {
			t.Fatalf("seed %d: an event fired that the model does not know", seed)
		}
	}
}
