// Package allocgate is the runtime layer of the hot-path allocation
// discipline (DESIGN.md §13): each package's allocgate tests call Zero to pin
// a //e2e:hotpath path at no heap allocations.
//
// It replaces the testing.AllocsPerRun calls those tests made, 26 of them in
// 11 packages: AllocsPerRun returns mallocs/runs in integer arithmetic, so
// anything that allocates less than once per run reads 0, such as an append
// that grows its slice every few hundred runs. Zero counts every allocation
// of every measured run.
package allocgate

import (
	"runtime"
	"testing"
)

// mallocs calls f once to warm it, then runs more times, and returns the
// total number of heap allocations those runs made. Like AllocsPerRun it
// holds GOMAXPROCS at 1 while it measures, so that no other goroutine of the
// test binary runs in parallel with f and lands in its count.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Zero fails tb unless runs warmed calls of f allocate nothing at all; what
// names the gated path in the failure.
func Zero(tb testing.TB, runs int, what string, f func()) {
	tb.Helper()
	if n := mallocs(runs, f); n != 0 {
		tb.Errorf("%s: %d allocations over %d runs (%.3g per run), want 0 in total",
			what, n, runs, float64(n)/float64(runs))
	}
}
