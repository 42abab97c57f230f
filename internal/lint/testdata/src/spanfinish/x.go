// Package spanfinish is golden testdata for e2elint/spanfinish: every
// span.Tracer Begin must reach a Finish on every exit path.
package spanfinish

import (
	"e2ebatch/internal/obs/span"
)

// leakAtEnd is the core violation: a begun span that falls off the end of
// the function is never pushed to the ring and never audited.
func leakAtEnd(tr *span.Tracer) {
	var sp span.Span
	tr.Begin(&sp, 0, 0, 1, 100)
} // want "span sp begun at line 13 is not finished on this function end path"

// leakOnEarlyReturn: the happy path finishes, the error path leaks.
func leakOnEarlyReturn(tr *span.Tracer, fail bool) {
	var sp span.Span
	tr.Begin(&sp, 0, 0, 2, 100)
	if fail {
		return // want "span sp begun at line 19 is not finished on this return path"
	}
	tr.Finish(&sp, 200)
}

// finishOnEveryPath: each exit path finishes the span itself.
func finishOnEveryPath(tr *span.Tracer, fail bool) {
	var sp span.Span
	tr.Begin(&sp, 0, 0, 3, 100)
	if fail {
		tr.Finish(&sp, 150)
		return
	}
	tr.Finish(&sp, 200)
}

// deferredFinishCoversEveryExit: a deferred close counts for the whole
// function, early returns included.
func deferredFinishCoversEveryExit(tr *span.Tracer, fail bool) {
	var sp span.Span
	tr.Begin(&sp, 0, 0, 4, 100)
	defer tr.Finish(&sp, 200)
	if fail {
		return
	}
}

// closureIsItsOwnScope: the completion callback pattern — the closure
// begins and finishes the shared scratch span inside its own body, and the
// enclosing function neither opens nor leaks anything.
func closureIsItsOwnScope(tr *span.Tracer) func(uint64, int64, int64) {
	var sp span.Span
	return func(reqID uint64, schedNs, doneNs int64) {
		if !tr.Sampled(reqID) {
			return
		}
		tr.Begin(&sp, 0, 0, reqID, schedNs)
		tr.Finish(&sp, doneNs)
	}
}

// leakInsideClosure: the same callback leaking on its sampled path is
// caught inside the literal's own scope.
func leakInsideClosure(tr *span.Tracer) func(uint64, int64, int64) {
	var sp span.Span
	return func(reqID uint64, schedNs, doneNs int64) {
		if !tr.Sampled(reqID) {
			return
		}
		tr.Begin(&sp, 0, 0, reqID, schedNs)
	} // want "span sp begun at line 70 is not finished on this function end path"
}

// handoffClosesFailOpen: passing the span to a helper moves ownership
// beyond the lexical scan — no finding, even though nothing here closes it.
func handoffClosesFailOpen(tr *span.Tracer, sink func(*span.Span)) {
	var sp span.Span
	tr.Begin(&sp, 0, 0, 5, 100)
	sink(&sp)
}

// branchLocalLifecycles: each branch owns its span's full lifecycle; the
// scan threads the open set per block, so neither branch pollutes the
// other.
func branchLocalLifecycles(tr *span.Tracer, fast bool) {
	var sp span.Span
	if fast {
		tr.Begin(&sp, 0, 0, 6, 100)
		tr.Finish(&sp, 150)
	} else {
		tr.Begin(&sp, 0, 0, 7, 100)
		tr.Finish(&sp, 300)
	}
}

// loopReuse: the scratch span is begun and finished every iteration — the
// steady-state hot-loop shape, clean.
func loopReuse(tr *span.Tracer, n int) {
	var sp span.Span
	for i := 0; i < n; i++ {
		id := uint64(i)
		if !tr.Sampled(id) {
			continue
		}
		tr.Begin(&sp, 0, 0, id, int64(i))
		tr.Finish(&sp, int64(i)+100)
	}
}
