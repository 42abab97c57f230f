package tcpsim

import (
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// queueInstr tracks one logical queue simultaneously in every unit mode.
// Alongside the paper's four counters it runs a DelayTracker per unit,
// fed from the very same track() calls: the FIFO cohort attribution turns
// the arrival/departure stream into the cumulative per-queue delay
// histograms the tail-estimation plane exchanges. Recording is passive —
// it never alters protocol behaviour or the mean-path counters.
type queueInstr struct {
	states [NumUnits]qstate.State
	delays [NumUnits]qstate.DelayTracker
}

func (q *queueInstr) init(now sim.Time) {
	for i := range q.states {
		q.states[i].Init(qstate.Time(now))
	}
}

// track records a population change: delta bytes, packets and sends at once.
func (q *queueInstr) track(now sim.Time, bytes, packets, sends int64) {
	t := qstate.Time(now)
	q.states[UnitBytes].Track(t, bytes)
	q.states[UnitPackets].Track(t, packets)
	q.states[UnitSends].Track(t, sends)
	q.delays[UnitBytes].Track(t, bytes)
	q.delays[UnitPackets].Track(t, packets)
	q.delays[UnitSends].Track(t, sends)
}

func (q *queueInstr) snapshot(now sim.Time, u Unit) qstate.Snapshot {
	return q.states[u].Snapshot(qstate.Time(now))
}

func (q *queueInstr) size(u Unit) int64 { return q.states[u].Size }

// Instrumentation bundles the three monitored queues of one connection
// endpoint.
type Instrumentation struct {
	unacked  queueInstr
	unread   queueInstr
	ackdelay queueInstr
}

func (in *Instrumentation) init(now sim.Time) {
	in.unacked.init(now)
	in.unread.init(now)
	in.ackdelay.init(now)
}

// Snapshots captures consistent snapshots of the three queues in the given
// unit at virtual time now.
func (in *Instrumentation) Snapshots(now sim.Time, u Unit) (unacked, unread, ackdelay qstate.Snapshot) {
	return in.unacked.snapshot(now, u), in.unread.snapshot(now, u), in.ackdelay.snapshot(now, u)
}

// WireState encodes the three queues' states in the given unit for a
// metadata exchange.
func (in *Instrumentation) WireState(now sim.Time, u Unit) qstate.WireState {
	ua, ur, ad := in.Snapshots(now, u)
	return qstate.WireState{
		Unacked:  qstate.ToWire(ua),
		Unread:   qstate.ToWire(ur),
		AckDelay: qstate.ToWire(ad),
	}
}

// WireTails bundles the three queues' cumulative delay histograms in the
// given unit — what a tails-carrying exchange hands the peer, in memory.
func (in *Instrumentation) WireTails(u Unit) qstate.WireTails {
	return qstate.WireTails{
		Unacked:  in.unacked.delays[u].Hist(),
		Unread:   in.unread.delays[u].Hist(),
		AckDelay: in.ackdelay.delays[u].Hist(),
	}
}

// Sizes returns the instantaneous sizes of the three queues in the given
// unit — the raw sk_wmem_queued/sk_rmem_alloc/(rcv_nxt−rcv_wup) analogues.
func (in *Instrumentation) Sizes(u Unit) (unacked, unread, ackdelay int64) {
	return in.unacked.size(u), in.unread.size(u), in.ackdelay.size(u)
}
