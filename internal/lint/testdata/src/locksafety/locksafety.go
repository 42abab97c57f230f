// Package locksafety is golden testdata for e2elint/locksafety.
package locksafety

import (
	"sync"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/qstate"
)

// Case 1: lock-free state touched inside a spawned goroutine.
func insideGoroutine(st *qstate.State) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.Track(0, 1)         // want "lock-free State.Track called from a spawned goroutine; use qstate.Tracker"
		var local qstate.State // ok below: goroutine-local value
		local.Track(0, 1)
	}()
	wg.Wait()
}

// Case 2: a method that runs as a goroutine (`go w.run()` below).
type worker struct {
	st qstate.State
}

func (w *worker) run() {
	w.st.Track(0, 1) // want "lock-free State.Track in run, which runs as a goroutine"
}

func (w *worker) runLocal() {
	var st qstate.State
	st.Track(0, 1) // ok: local to the goroutine's own frame
}

func start(w *worker) {
	go w.run()
	go w.runLocal()
}

// Case 3: a value shared between the spawner and its goroutine.
func captured() {
	var st qstate.State
	done := make(chan struct{})
	go func() {
		st.Track(0, 1) // want "lock-free State.Track called from a spawned goroutine"
		close(done)
	}()
	st.Track(0, 2) // want "lock-free State.Track on st, which a goroutine spawned in captured also captures"
	<-done
}

// The mutex-guarded counterparts are always fine.
func safeEverywhere(tr *qstate.Tracker, ht *hints.Tracker) {
	go func() {
		tr.Track(0, 1)
		ht.Create(1)
	}()
	tr.Track(0, 1)
}

// No goroutines anywhere: lock-free types are exactly what the hot path
// should use.
func singleGoroutine() {
	var st qstate.State
	st.Track(0, 1)
}
