package engine

import (
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/qstate"
)

// estimator turns one port's stream of samples into per-interval
// end-to-end estimates. It keeps the "previous and current" states the
// paper describes (§5 Metadata Exchange). The zero value is ready to use;
// the first update only primes it, and zeroing it re-primes (Endpoint.Reset).
// Only the tick goroutine touches it.
type estimator struct {
	prev   core.Sample
	primed bool
}

// update folds in a new sample and returns the estimate for the interval
// since the previous one. The returned estimate is invalid while priming or
// when the interval carried no departures, and flagged Degraded when the
// peer's metadata was missing or older than maxRemoteAge (zero disables the
// check) — real networks delay and drop the exchange packets, and a stale
// tuple silently skews the remote terms, so it is excluded rather than
// consumed.
func (e *estimator) update(s core.Sample, maxRemoteAge time.Duration) core.Estimate {
	if !e.primed {
		e.prev = s
		e.primed = true
		return core.Estimate{}
	}
	local := core.DelaysBetween(e.prev.Local, s.Local)
	remoteOK := e.prev.RemoteOK && s.RemoteOK
	stale := false
	if remoteOK && maxRemoteAge > 0 && time.Duration(s.At-s.RemoteAt) > maxRemoteAge {
		remoteOK, stale = false, true
	}
	var remote core.Delays
	if remoteOK {
		remote = wireDelays(e.prev.Remote, s.Remote)
	}
	var tail core.TailEstimate
	if remoteOK && e.prev.LocalTailsOK && s.LocalTailsOK && e.prev.RemoteTailsOK && s.RemoteTailsOK {
		lt, lok := core.TailDistsBetween(&e.prev.LocalTails, &s.LocalTails)
		rt, rok := core.TailDistsBetween(&e.prev.RemoteTails, &s.RemoteTails)
		if lok && rok {
			tail = core.ComposeTail(&lt, &rt, local, remote)
		}
	}
	e.prev = s
	est := core.EstimateE2E(local, remote)
	est.Tail = tail
	est.Degraded = !remoteOK
	est.RemoteStale = stale
	return est
}

// wireDelays computes per-queue averages between two successive metadata
// exchanges received from the peer, using wrap-aware 32-bit deltas.
func wireDelays(prev, now qstate.WireState) core.Delays {
	return core.Delays{
		Unacked:  qstate.WireAvgs(prev.Unacked, now.Unacked),
		Unread:   qstate.WireAvgs(prev.Unread, now.Unread),
		AckDelay: qstate.WireAvgs(prev.AckDelay, now.AckDelay),
	}
}
