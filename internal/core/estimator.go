// Package core implements the paper's primary contribution: end-to-end
// latency and throughput estimation from the three monitored TCP queues
// (§3.2) and their peer-exchanged metadata.
//
// The estimate combines per-queue Little's-law delays (package qstate) as
// derived in the paper's Figure 3:
//
//	L ≈ L_unacked^local − L_ackdelay^remote + L_unread^local + L_unread^remote
//
// Both parties can evaluate this formula — each treating itself as "local" —
// because each shares its three queue states with the other. The estimator
// computes both views and uses the maximum "to account for possible
// underestimations" (§3.2).
package core

import (
	"time"

	"e2ebatch/internal/qstate"
)

// Queues bundles one consistent snapshot of an endpoint's three monitored
// queues.
type Queues struct {
	Unacked  qstate.Snapshot
	Unread   qstate.Snapshot
	AckDelay qstate.Snapshot
}

// Delays holds the three per-queue Little's-law averages over an interval.
type Delays struct {
	Unacked  qstate.Avgs
	Unread   qstate.Avgs
	AckDelay qstate.Avgs
}

// DelaysBetween computes per-queue averages between two local snapshots.
func DelaysBetween(prev, now Queues) Delays {
	return Delays{
		Unacked:  qstate.GetAvgs(prev.Unacked, now.Unacked),
		Unread:   qstate.GetAvgs(prev.Unread, now.Unread),
		AckDelay: qstate.GetAvgs(prev.AckDelay, now.AckDelay),
	}
}

// WireDelays computes per-queue averages between two successive metadata
// exchanges received from the peer, using wrap-aware 32-bit deltas.
func WireDelays(prev, now qstate.WireState) Delays {
	return Delays{
		Unacked:  qstate.WireAvgs(prev.Unacked, now.Unacked),
		Unread:   qstate.WireAvgs(prev.Unread, now.Unread),
		AckDelay: qstate.WireAvgs(prev.AckDelay, now.AckDelay),
	}
}

// Estimate is an end-to-end performance estimate over one interval.
type Estimate struct {
	// Latency is max(LocalView, RemoteView) over the valid views.
	Latency time.Duration
	// LocalView and RemoteView are the two evaluations of the §3.2
	// formula; each is meaningful only if the matching *Valid flag is
	// set.
	LocalView       time.Duration
	RemoteView      time.Duration
	LocalViewValid  bool
	RemoteViewValid bool
	// Throughput is the local unacked queue's departure rate — message
	// units leaving the sender per second, i.e. the connection's
	// application-level send throughput in the chosen unit.
	Throughput float64
	// Valid reports whether at least one view could be computed.
	Valid bool
	// Degraded reports that the peer's metadata was missing or stale, so
	// the estimate (if Valid) is the local-only fallback: the remote
	// unread and ack-delay terms of the §3.2 formula are absent.
	// Consumers that act on estimates (toggling policies) should treat a
	// degraded estimate as untrusted input rather than ground truth.
	Degraded bool
	// RemoteStale distinguishes why a degraded estimate lacks peer data:
	// true means an exchange exists but aged past MaxRemoteAge, false
	// means none has arrived over the interval at all.
	RemoteStale bool
	// Tail is the composed end-to-end quantile estimate (tail.go). It
	// abstains (Valid=false) independently of the mean: a v1 peer without
	// tail histograms, a reordered delta, or a degraded interval all leave
	// the mean estimate usable while the tail stays invalid.
	Tail TailEstimate
}

// viewLatency evaluates L_unacked^local − L_ackdelay^remote +
// L_unread^local + L_unread^remote from the perspective where a is "local"
// and b is "remote". The unacked term must be valid (it carries the
// network round trip); idle unread/ackdelay queues contribute zero delay.
func viewLatency(local, remote Delays) (time.Duration, bool) {
	if !local.Unacked.Valid {
		return 0, false
	}
	l := local.Unacked.Latency
	if remote.AckDelay.Valid {
		l -= remote.AckDelay.Latency
	}
	if local.Unread.Valid {
		l += local.Unread.Latency
	}
	if remote.Unread.Valid {
		l += remote.Unread.Latency
	}
	if l < 0 {
		// The ack-delay correction slightly overshot; clamp rather
		// than report a negative latency.
		l = 0
	}
	return l, true
}

// EstimateE2E combines the two endpoints' per-queue delays into an
// end-to-end estimate, taking the max of the two perspective evaluations.
func EstimateE2E(local, remote Delays) Estimate {
	var e Estimate
	e.LocalView, e.LocalViewValid = viewLatency(local, remote)
	e.RemoteView, e.RemoteViewValid = viewLatency(remote, local)
	e.Throughput = local.Unacked.Throughput
	switch {
	case e.LocalViewValid && e.RemoteViewValid:
		e.Latency = e.LocalView
		if e.RemoteView > e.Latency {
			e.Latency = e.RemoteView
		}
		e.Valid = true
	case e.LocalViewValid:
		e.Latency = e.LocalView
		e.Valid = true
	case e.RemoteViewValid:
		e.Latency = e.RemoteView
		e.Valid = true
	}
	return e
}

// Sample is one observation an Estimator consumes: the local queues' exact
// snapshots plus the peer's most recent wire-format exchange (ok reports
// whether any exchange has arrived yet). At and RemoteAt carry the sample
// time and the exchange's arrival time on the same clock; they matter only
// when the estimator enforces MaxRemoteAge and may otherwise stay zero.
type Sample struct {
	Local    Queues
	Remote   qstate.WireState
	RemoteOK bool
	At       qstate.Time
	RemoteAt qstate.Time

	// Tail histograms (tail.go): the local endpoint's cumulative per-queue
	// delay histograms and the peer's, from its last v2 exchange. The OK flags
	// gate tail composition only — a v1 peer leaves RemoteTailsOK false and
	// the mean estimate untouched.
	LocalTails    qstate.WireTails
	LocalTailsOK  bool
	RemoteTails   qstate.WireTails
	RemoteTailsOK bool
}

// Estimator turns a stream of samples into per-interval end-to-end
// estimates for one connection. It keeps the "previous and current" states
// the paper describes (§5 Metadata Exchange). The zero value is ready to
// use; the first Update only primes it.
type Estimator struct {
	// MaxRemoteAge bounds how old the peer's last exchange may be, on the
	// Sample.At clock, before the estimator stops trusting it and falls
	// back to the local-only view with Estimate.Degraded set. Zero (the
	// default) disables the staleness check — appropriate only when the
	// exchange transport cannot stall, e.g. offline trace replay.
	MaxRemoteAge time.Duration

	prev      Sample
	primed    bool
	estimates uint64
	degraded  uint64
}

// Update folds in a new sample and returns the estimate for the interval
// since the previous one. The returned estimate is invalid while priming or
// when the interval carried no departures, and flagged Degraded when the
// peer's metadata was missing or older than MaxRemoteAge — real networks
// delay and drop the exchange packets, and a stale tuple silently skews the
// remote terms, so it is excluded rather than consumed.
func (e *Estimator) Update(s Sample) Estimate {
	if !e.primed {
		e.prev = s
		e.primed = true
		return Estimate{}
	}
	local := DelaysBetween(e.prev.Local, s.Local)
	remoteOK := e.prev.RemoteOK && s.RemoteOK
	stale := false
	if remoteOK && e.MaxRemoteAge > 0 && time.Duration(s.At-s.RemoteAt) > e.MaxRemoteAge {
		remoteOK, stale = false, true
	}
	var remote Delays
	if remoteOK {
		remote = WireDelays(e.prev.Remote, s.Remote)
	}
	var tail TailEstimate
	if remoteOK && e.prev.LocalTailsOK && s.LocalTailsOK && e.prev.RemoteTailsOK && s.RemoteTailsOK {
		lt, lok := TailDistsBetween(&e.prev.LocalTails, &s.LocalTails)
		rt, rok := TailDistsBetween(&e.prev.RemoteTails, &s.RemoteTails)
		if lok && rok {
			tail = ComposeTail(&lt, &rt, local, remote)
		}
	}
	e.prev = s
	est := EstimateE2E(local, remote)
	est.Tail = tail
	est.Degraded = !remoteOK
	est.RemoteStale = stale
	if est.Degraded {
		e.degraded++
	}
	if est.Valid {
		e.estimates++
	}
	return est
}

// Reset discards the priming state, e.g. after an idle period long enough
// to make the previous sample stale, or after a connection reset invalidated
// the peer's counters. Configuration (MaxRemoteAge) survives the reset.
func (e *Estimator) Reset() {
	maxAge := e.MaxRemoteAge
	*e = Estimator{MaxRemoteAge: maxAge}
}

// Estimates returns how many valid estimates have been produced.
func (e *Estimator) Estimates() uint64 { return e.estimates }

// DegradedCount returns how many post-priming updates ran without usable
// peer metadata.
func (e *Estimator) DegradedCount() uint64 { return e.degraded }

// Aggregate combines per-connection estimates into one, weighting each
// connection's latency by its throughput — the per-connection averaging the
// paper mentions for batching policies that affect multiple connections
// (§3.2). Invalid estimates are skipped; the result is invalid if none were
// valid.
func Aggregate(ests []Estimate) Estimate {
	var out Estimate
	var wsum float64
	var lsum float64
	for _, e := range ests {
		if !e.Valid {
			continue
		}
		w := e.Throughput
		if w <= 0 {
			w = 1
		}
		wsum += w
		lsum += w * float64(e.Latency)
		out.Throughput += e.Throughput
		out.Valid = true
		// Tails combine as the per-quantile max: an SLO over several
		// connections binds on the slowest one, so the conservative
		// aggregate is the envelope, not a weighted mean. Valid when at
		// least one connection composed a tail.
		if e.Tail.Valid {
			if !out.Tail.Valid {
				out.Tail = e.Tail
			} else {
				out.Tail.P50 = maxDur(out.Tail.P50, e.Tail.P50)
				out.Tail.P90 = maxDur(out.Tail.P90, e.Tail.P90)
				out.Tail.P99 = maxDur(out.Tail.P99, e.Tail.P99)
				out.Tail.P999 = maxDur(out.Tail.P999, e.Tail.P999)
			}
		}
	}
	if out.Valid && wsum > 0 {
		out.Latency = time.Duration(lsum / wsum)
	}
	return out
}
