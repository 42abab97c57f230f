package sim

import (
	"testing"
	"time"
)

func TestNowStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestAtRunsInOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among ties)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.At(50, func() {
		s.After(25*time.Nanosecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 75 {
		t.Fatalf("fired at %v, want 75", at)
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.At(10, func() {
		s.After(-time.Second, func() { fired = s.Now() == 10 })
	})
	s.Run()
	if !fired {
		t.Fatal("negative After did not fire at current time")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNilFuncPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("nil event func did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel of a pending event reported false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestCancelReportsWhetherItStopped pins time.Timer.Stop's contract: true
// exactly when the call is what kept the event from firing.
func TestCancelReportsWhetherItStopped(t *testing.T) {
	s := New(1)
	e := s.At(10, func() {})
	if !s.Cancel(e) || s.Cancel(e) {
		t.Fatal("want true from the first Cancel and false from the second")
	}
	if s.Cancel(Timer{}) {
		t.Fatal("the zero Timer cancelled something")
	}
	fired := s.At(20, func() {})
	var self Timer
	var fromInside bool
	self = s.At(30, func() { fromInside = s.Cancel(self) })
	s.Run()
	if s.Cancel(fired) {
		t.Fatal("Cancel after the event fired reported true")
	}
	if fromInside {
		t.Fatal("an event cancelling its own handle while firing reported true")
	}
}

// TestStaleHandleCannotCancelSlotsNextTenant reuses one slot many times: the
// handle of every earlier tenant must be a no-op against the current one.
func TestStaleHandleCannotCancelSlotsNextTenant(t *testing.T) {
	s := New(1)
	var stale []Timer
	for i := 0; i < 100; i++ {
		e := s.At(Time(i), func() {})
		if i%2 == 0 {
			s.Cancel(e)
		} else {
			s.Step()
		}
		stale = append(stale, e)
	}
	fired := false
	live := s.At(1000, func() { fired = true })
	if live.slot != stale[0].slot {
		t.Fatalf("test premise: slot %d was not reused (got %d)", stale[0].slot, live.slot)
	}
	for _, e := range stale {
		if s.Cancel(e) {
			t.Fatalf("stale handle %+v cancelled the live event %+v", e, live)
		}
	}
	if s.Run(); !fired {
		t.Fatal("live event did not fire")
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(20, func() { fired = true })
	s.At(10, func() { s.Cancel(e) })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", s.Now())
	}
	s.RunUntil(40) // inclusive boundary
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four after RunUntil(40)", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New(1)
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("Now() = %v, want 1000", s.Now())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := New(1)
	s.RunUntil(100)
	s.RunFor(50 * time.Nanosecond)
	if s.Now() != 150 {
		t.Fatalf("Now() = %v, want 150", s.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Run should stop mid-way)", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resuming", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	s := New(1)
	e1 := s.At(1, func() {})
	s.At(2, func() {})
	s.Cancel(e1)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
}

func TestNextAt(t *testing.T) {
	s := New(1)
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	e := s.At(42, func() {})
	if at, ok := s.NextAt(); !ok || at != 42 {
		t.Fatalf("NextAt = %v,%v want 42,true", at, ok)
	}
	s.Cancel(e)
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt reported a cancelled event")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		var rec func()
		n := 0
		rec = func() {
			out = append(out, int64(s.Now()), s.rng.Int63n(1000))
			n++
			if n < 100 {
				s.After(time.Duration(1+s.rng.Intn(50))*time.Nanosecond, rec)
			}
		}
		s.At(0, rec)
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestFiredCounts(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", s.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	var a Time = 1500
	if a.Add(500*time.Nanosecond) != 2000 {
		t.Fatal("Add wrong")
	}
	if a.Sub(500) != time.Microsecond {
		t.Fatal("Sub wrong")
	}
	if a.Duration() != 1500*time.Nanosecond {
		t.Fatal("Duration wrong")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	s := New(1)
	var fires []Time
	tk := NewTicker(s, 10*time.Nanosecond, func(now Time) { fires = append(fires, now) })
	s.RunUntil(35)
	tk.Stop()
	s.RunUntil(100)
	want := []Time{10, 20, 30}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = NewTicker(s, 5*time.Nanosecond, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(1000)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewTicker(s, 0, func(Time) {})
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Nanosecond, func() {})
		s.Step()
	}
}
