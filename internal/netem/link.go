// Package netem models the wire between the two endpoints: a full-duplex
// point-to-point link with finite serialization rate, propagation delay and
// a FIFO NIC transmit queue — the stand-in for the paper's 100 Gbps
// ConnectX-5 back-to-back connection.
//
// Optional jitter and loss support the failure-injection tests; the paper's
// experiments run loss-free.
package netem

import (
	"fmt"
	"time"

	"e2ebatch/internal/sim"
)

// Config describes one direction of a link.
type Config struct {
	// BitsPerSec is the serialization rate. Zero means infinitely fast
	// (no serialization delay).
	BitsPerSec int64
	// Propagation is the one-way propagation delay.
	Propagation time.Duration
	// PerPacketOverhead is extra wire time per packet (preamble, IFG,
	// headers not included in the payload size).
	PerPacketOverhead time.Duration
	// Jitter, if positive, adds uniformly distributed extra delay in
	// [0, Jitter) to each packet's propagation.
	Jitter time.Duration
	// LossProb drops each packet independently with this probability.
	LossProb float64
}

// DefaultConfig approximates one direction of the paper's testbed link:
// 100 Gbps with a few microseconds of one-way delay (switchless,
// back-to-back, but including NIC/DMA latency).
func DefaultConfig() Config {
	return Config{
		BitsPerSec:        100_000_000_000,
		Propagation:       2 * time.Microsecond,
		PerPacketOverhead: 0,
	}
}

// Pipe is one direction of a link. Packets handed to Send serialize in FIFO
// order at the configured rate, then arrive after the propagation delay.
type Pipe struct {
	sim  *sim.Sim
	name string
	cfg  Config

	lastDepart sim.Time
	lastArrive sim.Time

	// stats
	packets uint64
	bytes   uint64
	dropped uint64
}

// checkLossProb panics unless p is a valid drop probability. The valid range
// is [0, 1): probability 1 would drop every packet, which no amount of
// retransmission recovers from — a disconnected wire is a topology choice,
// not a loss parameter.
func checkLossProb(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netem: LossProb %v outside [0, 1)", p))
	}
}

// NewPipe returns one direction of a link.
func NewPipe(s *sim.Sim, name string, cfg Config) *Pipe {
	checkLossProb(cfg.LossProb)
	return &Pipe{sim: s, name: name, cfg: cfg}
}

// SetLossProb changes the drop probability at runtime — the fault-injection
// knob for loss bursts. It panics outside [0, 1), like NewPipe.
func (p *Pipe) SetLossProb(prob float64) {
	checkLossProb(prob)
	p.cfg.LossProb = prob
}

// LossProb returns the current drop probability.
func (p *Pipe) LossProb() float64 { return p.cfg.LossProb }

// SetJitter changes the per-packet jitter bound at runtime — the
// fault-injection knob for jitter ramps. Negative values clamp to zero.
// Jittered arrivals remain FIFO-clamped (see Send), so raising jitter never
// reorders the wire.
func (p *Pipe) SetJitter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.cfg.Jitter = d
}

// Jitter returns the current jitter bound.
func (p *Pipe) Jitter() time.Duration { return p.cfg.Jitter }

// Send enqueues a packet of size bytes. to.HandleEvent(kind, arg) runs at the
// packet's arrival time at the far end; it is not called if the packet is
// dropped. Send returns the arrival time (or the drop decision time for
// dropped packets).
//
//e2e:hotpath
func (p *Pipe) Send(size int, to sim.Handler, kind int, arg any) sim.Time {
	now := p.sim.Now()
	if p.cfg.LossProb > 0 && p.sim.Rand().Float64() < p.cfg.LossProb {
		p.dropped++
		return now
	}
	start := now
	if p.lastDepart > start {
		start = p.lastDepart
	}
	ser := p.serialization(size)
	depart := start.Add(ser)
	p.lastDepart = depart
	prop := p.cfg.Propagation
	if p.cfg.Jitter > 0 {
		prop += time.Duration(p.sim.Rand().Int63n(int64(p.cfg.Jitter)))
	}
	arrive := depart.Add(prop)
	// A point-to-point wire cannot reorder: jittered arrivals are clamped
	// to FIFO order (consumers such as tcpsim rely on in-order delivery).
	if arrive < p.lastArrive {
		arrive = p.lastArrive
	}
	p.lastArrive = arrive
	p.packets++
	p.bytes += uint64(size)
	p.sim.Post(arrive, to, kind, arg)
	return arrive
}

func (p *Pipe) serialization(size int) time.Duration {
	d := p.cfg.PerPacketOverhead
	if p.cfg.BitsPerSec > 0 {
		d += time.Duration(int64(size) * 8 * int64(time.Second) / p.cfg.BitsPerSec)
	}
	return d
}

// QueueDelay reports how long a packet submitted now would wait before
// starting serialization.
func (p *Pipe) QueueDelay() time.Duration {
	now := p.sim.Now()
	if p.lastDepart <= now {
		return 0
	}
	return p.lastDepart.Sub(now)
}

// Stats returns cumulative packet, byte and drop counts.
func (p *Pipe) Stats() (packets, bytes, dropped uint64) {
	return p.packets, p.bytes, p.dropped
}

// String describes the pipe.
func (p *Pipe) String() string {
	return fmt.Sprintf("pipe(%s): pkts=%d bytes=%d dropped=%d", p.name, p.packets, p.bytes, p.dropped)
}

// Link is a full-duplex pair of pipes between endpoints A and B.
type Link struct {
	AtoB *Pipe
	BtoA *Pipe
}

// NewLink builds a symmetric full-duplex link.
func NewLink(s *sim.Sim, name string, cfg Config) *Link {
	return &Link{
		AtoB: NewPipe(s, name+":a->b", cfg),
		BtoA: NewPipe(s, name+":b->a", cfg),
	}
}

// SetLossProb applies a drop probability to both directions.
func (l *Link) SetLossProb(p float64) {
	l.AtoB.SetLossProb(p)
	l.BtoA.SetLossProb(p)
}

// SetJitter applies a jitter bound to both directions.
func (l *Link) SetJitter(d time.Duration) {
	l.AtoB.SetJitter(d)
	l.BtoA.SetJitter(d)
}
