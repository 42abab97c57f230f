package tcpsim

import (
	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/qstate"
)

// EnginePort adapts one simulated connection pair to the shared control
// engine: samples come from the local end's kernel queue snapshots plus the
// peer's last metadata exchange, and decisions are applied to both ends —
// what a kernel running the paper's policy on each side would do.
type EnginePort struct {
	local *Conn
	peer  *Conn
}

// NewEnginePort returns a port sampling local's queues in bytes — the unit
// the exchange carries — and applying decisions to both local and peer.
func NewEnginePort(local, peer *Conn) *EnginePort {
	return &EnginePort{local: local, peer: peer}
}

// Snapshot captures the local queue state and the freshest peer exchange.
func (p *EnginePort) Snapshot(now qstate.Time) core.Sample {
	ua, ur, ad := p.local.Snapshots(UnitBytes)
	s := core.Sample{
		Local: core.Queues{Unacked: ua, Unread: ur, AckDelay: ad},
		At:    now,
	}
	if ws, at, ok := p.local.PeerWireState(); ok {
		s.Remote, s.RemoteOK = ws, true
		s.RemoteAt = qstate.Time(at)
	}
	// Delay tracking is always on locally; the remote histograms exist only
	// once the peer has sent a v2 (tails-carrying) exchange. Against a v1
	// peer RemoteTailsOK stays false and the estimator's tail abstains while
	// the mean proceeds.
	s.LocalTails = p.local.LocalTails()
	s.LocalTailsOK = true
	if ts, ok := p.local.PeerTails(); ok {
		s.RemoteTails, s.RemoteTailsOK = ts, true
	}
	return s
}

// Apply sets NODELAY on both ends and, when requested, the cork threshold.
func (p *EnginePort) Apply(d engine.Decision) error {
	p.local.SetNoDelay(!d.Batch)
	p.peer.SetNoDelay(!d.Batch)
	if d.CorkBytes > 0 {
		p.local.SetCorkBytes(d.CorkBytes)
		p.peer.SetCorkBytes(d.CorkBytes)
	}
	return nil
}

// SelfContained reports false: these samples are the kernel-queue kind that
// need the peer's metadata for the full §3.2 picture.
func (p *EnginePort) SelfContained() bool { return false }
