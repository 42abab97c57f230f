package qstate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPaperWorkedExample reproduces the illustration in §3.1: a queue holds
// one item for 10µs and then four items for 20µs; the integral is
// 1×10 + 4×20 = 90 item·µs, average size 90/30 = 3 items.
func TestPaperWorkedExample(t *testing.T) {
	us := func(n int64) Time { return Time(n * 1000) }
	var s State
	s.Init(0)
	s.Track(us(0), 1)  // one item from t=0
	s.Track(us(10), 3) // four items from t=10µs
	snap0 := Snapshot{}
	snap1 := s.Snapshot(us(30))
	a := GetAvgs(snap0, snap1)
	if math.Abs(a.Q-3) > 1e-9 {
		t.Fatalf("Q = %v, want 3", a.Q)
	}
	if snap1.Integral != 90*1000 {
		t.Fatalf("integral = %d, want 90000 item·ns", snap1.Integral)
	}
}

// TestLittlesLawSingleItem: one item resident for exactly d must yield
// latency d when it is the only departure in the interval.
func TestLittlesLawSingleItem(t *testing.T) {
	var s State
	s.Init(0)
	start := s.Snapshot(0)
	s.Track(100, 1)
	s.Track(100+5000, -1) // resident 5µs
	end := s.Snapshot(10000)
	a := GetAvgs(start, end)
	if !a.Valid {
		t.Fatal("expected valid avgs")
	}
	if a.Latency != 5*time.Microsecond {
		t.Fatalf("latency = %v, want 5µs", a.Latency)
	}
	if a.Departures != 1 {
		t.Fatalf("departures = %d", a.Departures)
	}
}

// TestLittlesLawBatch: k items each resident d ⇒ average latency d.
func TestLittlesLawBatch(t *testing.T) {
	var s State
	s.Init(0)
	start := s.Snapshot(0)
	const k = 7
	s.Track(0, k)
	s.Track(3000, -k)
	end := s.Snapshot(3000)
	a := GetAvgs(start, end)
	if a.Latency != 3*time.Microsecond {
		t.Fatalf("latency = %v, want 3µs", a.Latency)
	}
	if a.Departures != k {
		t.Fatalf("departures = %d, want %d", a.Departures, k)
	}
}

func TestThroughputComputation(t *testing.T) {
	var s State
	s.Init(0)
	start := s.Snapshot(0)
	// 1000 items arrive and depart over 1ms ⇒ λ = 1e6/s.
	for i := int64(0); i < 1000; i++ {
		s.Track(Time(i*1000), 1)
		s.Track(Time(i*1000+500), -1)
	}
	end := s.Snapshot(Time(time.Millisecond))
	a := GetAvgs(start, end)
	if math.Abs(a.Throughput-1e6) > 1 {
		t.Fatalf("throughput = %v, want 1e6", a.Throughput)
	}
	if a.Latency != 500*time.Nanosecond {
		t.Fatalf("latency = %v, want 500ns", a.Latency)
	}
}

func TestTrackZeroAdvancesIntegralOnly(t *testing.T) {
	var s State
	s.Init(0)
	s.Track(0, 2)
	s.Track(10, 0)
	if s.Integral != 20 {
		t.Fatalf("integral = %d, want 20", s.Integral)
	}
	if s.Size != 2 || s.Total != 0 {
		t.Fatalf("size/total changed: %v", s.String())
	}
}

func TestInitNonZeroTime(t *testing.T) {
	var s State
	s.Init(12345)
	s.Track(12345+100, 1)
	if s.Integral != 0 {
		t.Fatalf("integral accumulated while empty: %d", s.Integral)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	var s State
	s.Init(0)
	defer func() {
		if recover() == nil {
			t.Fatal("removing from an empty queue did not panic")
		}
	}()
	s.Track(1, -1)
}

func TestTimeBackwardsPanics(t *testing.T) {
	var s State
	s.Init(100)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	s.Track(50, 1)
}

func TestGetAvgsEmptyInterval(t *testing.T) {
	snap := Snapshot{Time: 100, Total: 5, Integral: 50}
	a := GetAvgs(snap, snap)
	if a.Valid {
		t.Fatal("zero-length interval reported valid")
	}
}

func TestGetAvgsIdleInterval(t *testing.T) {
	// Items parked but none departing: Q > 0, latency undefined.
	var s State
	s.Init(0)
	start := s.Snapshot(0)
	s.Track(0, 3)
	end := s.Snapshot(1000)
	a := GetAvgs(start, end)
	if a.Valid {
		t.Fatal("interval with no departures reported valid latency")
	}
	if math.Abs(a.Q-3) > 1e-9 {
		t.Fatalf("Q = %v, want 3", a.Q)
	}
	if a.Throughput != 0 {
		t.Fatalf("throughput = %v, want 0", a.Throughput)
	}
}

// TestGetAvgsSingleItem: one item resident for 10 ns is a 10 ns mean
// latency, whatever the interval's length.
func TestGetAvgsSingleItem(t *testing.T) {
	var s State
	s.Init(0)
	a := s.Snapshot(0)
	s.Track(10, 1)
	s.Track(20, -1)
	b := s.Snapshot(100)
	if got, want := GetAvgs(a, b).Latency, 10*time.Nanosecond; got != want {
		t.Fatalf("GetAvgs latency = %v, want %v", got, want)
	}
}

// TestPropertyLittlesLaw drives a random arrival/departure schedule, computes
// ground-truth mean residence time assuming FIFO order, and checks GetAvgs
// agrees. This is the central correctness property of the whole paper.
func TestPropertyLittlesLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var s State
		s.Init(0)
		start := s.Snapshot(0)
		now := Time(0)
		var arrivals []Time // FIFO arrival times of items still queued
		var totalResidence time.Duration
		departed := 0
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			now += Time(1 + rng.Int63n(10000))
			if len(arrivals) > 0 && rng.Intn(2) == 0 {
				// depart one (FIFO)
				totalResidence += time.Duration(now - arrivals[0])
				arrivals = arrivals[1:]
				departed++
				s.Track(now, -1)
			} else {
				arrivals = append(arrivals, now)
				s.Track(now, 1)
			}
		}
		// Drain the queue so every arrival is accounted for.
		for _, at := range arrivals {
			now += Time(1 + rng.Int63n(10000))
			totalResidence += time.Duration(now - at)
			departed++
			s.Track(now, -1)
		}
		arrivals = nil
		end := s.Snapshot(now)
		a := GetAvgs(start, end)
		if departed == 0 {
			continue
		}
		want := totalResidence / time.Duration(departed)
		if a.Departures != int64(departed) {
			t.Fatalf("trial %d: departures %d, want %d", trial, a.Departures, departed)
		}
		diff := a.Latency - want
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Nanosecond {
			t.Fatalf("trial %d: latency %v, ground truth %v", trial, a.Latency, want)
		}
	}
}

// TestPropertyIntegralMonotonic: the integral never decreases, and total is
// non-decreasing, regardless of the schedule.
func TestPropertyIntegralMonotonic(t *testing.T) {
	check := func(deltas []int8, gaps []uint16) bool {
		var s State
		s.Init(0)
		now := Time(0)
		prevIntegral, prevTotal := int64(0), int64(0)
		for i, d := range deltas {
			gap := Time(1)
			if i < len(gaps) {
				gap = Time(gaps[i]) + 1
			}
			now += gap
			delta := int64(d)
			if s.Size+delta < 0 {
				delta = -s.Size
			}
			s.Track(now, delta)
			if s.Integral < prevIntegral || s.Total < prevTotal {
				return false
			}
			prevIntegral, prevTotal = s.Integral, s.Total
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySnapshotAdditivity: avgs over [a,c] is consistent with the
// time-weighted combination of [a,b] and [b,c].
func TestPropertySnapshotAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var s State
		s.Init(0)
		a := s.Snapshot(0)
		now := Time(0)
		step := func(k int) Snapshot {
			for i := 0; i < k; i++ {
				now += Time(1 + rng.Int63n(100))
				if s.Size > 0 && rng.Intn(2) == 0 {
					s.Track(now, -1)
				} else {
					s.Track(now, 1)
				}
			}
			now += 1
			return s.Snapshot(now)
		}
		b := step(30)
		c := step(30)
		full := GetAvgs(a, c)
		p1 := GetAvgs(a, b)
		p2 := GetAvgs(b, c)
		if p1.Departures+p2.Departures != full.Departures {
			t.Fatalf("departures not additive")
		}
		// Integral additivity: Q weighted by elapsed time.
		lhs := full.Q * full.Elapsed.Seconds()
		rhs := p1.Q*p1.Elapsed.Seconds() + p2.Q*p2.Elapsed.Seconds()
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("integral not additive: %v vs %v", lhs, rhs)
		}
	}
}
