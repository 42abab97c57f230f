package tcpsim

import (
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// queueInstr tracks one logical queue. The paper's four counters run in
// every unit mode, for the trace log's per-unit columns; beside them one
// DelayTracker, fed the byte delta of the very same track() calls, turns
// the arrival/departure stream into the cumulative delay histogram the
// tail-estimation plane exchanges. Tails are recorded in bytes only: that is
// the unit every reader (EnginePort, the runner's tail capture, the v2
// exchange) asks for. Recording is passive — it never alters protocol
// behaviour or the mean-path counters.
type queueInstr struct {
	states [NumUnits]qstate.State
	delay  qstate.DelayTracker
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
	q.delay.Track(t, bytes)
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

// WireState encodes the three queues' byte states for a metadata exchange.
func (in *Instrumentation) WireState(now sim.Time) qstate.WireState {
	ua, ur, ad := in.Snapshots(now, UnitBytes)
	return qstate.WireState{
		Unacked:  qstate.ToWire(ua),
		Unread:   qstate.ToWire(ur),
		AckDelay: qstate.ToWire(ad),
	}
}

// WireTails writes the three queues' cumulative byte-delay histograms —
// what a tails-carrying exchange hands the peer, in memory — into t, each
// copied once from its tracker: a segment's tails buffer is filled where it
// is, and the receiver takes it over by pointer swap.
func (in *Instrumentation) WireTails(t *qstate.WireTails) {
	t.Unacked = *in.unacked.delay.Hist()
	t.Unread = *in.unread.delay.Hist()
	t.AckDelay = *in.ackdelay.delay.Hist()
}

// Sizes returns the instantaneous sizes of the three queues in the given
// unit — the raw sk_wmem_queued/sk_rmem_alloc/(rcv_nxt−rcv_wup) analogues.
func (in *Instrumentation) Sizes(u Unit) (unacked, unread, ackdelay int64) {
	return in.unacked.size(u), in.unread.size(u), in.ackdelay.size(u)
}
