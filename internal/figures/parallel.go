package figures

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The figure sweeps are embarrassingly parallel: every Run builds its own
// simulator, stacks, store and load generator from the spec, and the spec
// itself (calibration tables, workload closures) is immutable once built.
// RunMany exploits that by fanning the specs across a worker pool while
// keeping the output order-stable — result i is always spec i's — so a
// parallel sweep is byte-identical to a serial one. Determinism comes from
// per-run seeding (each run's RNG is derived from its own spec.Seed, never
// shared across runs), not from execution order.

// parallelism is the worker count the sweep helpers use, defaulting to
// GOMAXPROCS. It is read atomically so tests and cmd/e2efig's -parallel
// flag can adjust it without racing concurrent sweeps.
var parallelism atomic.Int32

// SetParallelism sets how many runs the sweep functions execute
// concurrently. n <= 0 restores the default (GOMAXPROCS); n == 1 forces
// serial execution. It returns the previous setting.
func SetParallelism(n int) int {
	return int(parallelism.Swap(int32(n)))
}

// Parallelism returns the current worker count for sweeps.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunMany executes every spec and returns the outputs in spec order,
// fanning the runs across up to workers goroutines (workers <= 0 means
// GOMAXPROCS). The results are identical to calling Run serially: runs
// share no mutable state, so only the wall-clock time depends on workers.
func RunMany(specs []RunSpec, workers int) []*RunOut {
	return fanOut(specs, workers, Run)
}

// fanOut is RunMany with the run function as a parameter: the
// multi-connection figure runs its specs through its own wiring. Each spec
// runs on its own goroutine, at most workers at a time. A panicking run (a
// simulator invariant violation) must not crash the process from a bare
// goroutine: the first one stops the sweep and is re-raised on the caller's
// goroutine, where tests and main can handle it.
func fanOut(specs []RunSpec, workers int, run func(RunSpec) *RunOut) []*RunOut {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]*RunOut, len(specs))
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var panicked atomic.Value
	for i := range specs {
		slots <- struct{}{}
		if panicked.Load() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, fmt.Sprintf("figures: run %d panicked: %v", i, r))
				}
				<-slots
				wg.Done()
			}()
			out[i] = run(specs[i])
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return out
}
