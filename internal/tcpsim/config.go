// Package tcpsim emulates, in userspace and in virtual time, the slice of
// the kernel TCP/IP stack the paper instruments: socket send/receive
// buffers, MSS segmentation with TSO-style coalescing, Nagle's algorithm,
// auto-corking, delayed acknowledgments, receive-window flow control, and —
// crucially — TRACK instrumentation (Algorithm 1) of the three queues the
// estimator consumes:
//
//   - unacked:  bytes/packets/sends written by the app, not yet ACKed
//     (the sk_wmem_queued analogue),
//   - unread:   data delivered by the stack, not yet read by the app
//     (the sk_rmem_alloc analogue),
//   - ackdelay: data received but not yet acknowledged to the peer
//     (the rcv_nxt − rcv_wup analogue).
//
// Each queue's counters are tracked simultaneously in the three "message
// unit" modes the paper discusses (§3.3): bytes, packets and send-calls; its
// delay histogram is tracked in bytes. Queue-state metadata (the byte
// counters' 36-byte wire form, §3.2) can be piggybacked on outgoing segments,
// emulating the TCP-option exchange of §5.
//
// Links are in-order and, like the paper's back-to-back testbed, lossless by
// default; on a lossy one Config.RTO turns on go-back-N retransmission.
//
// SimServer is the mini-Redis application on a simulated connection's server
// end: it runs kv.Engine and charges the paper's α/β costs to the app CPU.
package tcpsim

import (
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/sim"
)

// Unit selects the "message" granularity used when interpreting a queue, per
// the paper's semantic-gap discussion (§3.3).
type Unit int

const (
	// UnitBytes treats each byte as a message — what the paper's kernel
	// prototype does (§3.4).
	UnitBytes Unit = iota
	// UnitPackets treats each wire segment as a message — the paper's
	// second prototype, "similarly limited".
	UnitPackets
	// UnitSends treats each send(2) invocation as a message — the
	// paper's proposed next step (§3.3).
	UnitSends

	// NumUnits is the number of tracked unit modes.
	NumUnits = 3
)

// String names the unit.
func (u Unit) String() string {
	switch u {
	case UnitBytes:
		return "bytes"
	case UnitPackets:
		return "packets"
	case UnitSends:
		return "sends"
	}
	return "unknown"
}

// Config holds the per-connection protocol parameters. DefaultConfig
// provides kernel-flavoured values; the delayed-ACK timeout is scaled from
// Linux's 40 ms minimum down to the microsecond regime of the simulated
// testbed (see DESIGN.md).
type Config struct {
	// MSS is the maximum segment size (payload bytes per wire segment).
	MSS int
	// TSOMaxBytes caps how many bytes one transmit flush may carry as a
	// single super-packet (the TSO/GSO limit).
	TSOMaxBytes int
	// RecvBuf is the receive socket buffer size in bytes; it bounds the
	// advertised window.
	RecvBuf int64
	// Nagle enables Nagle's algorithm initially; toggle at runtime with
	// SetNoDelay (Redis's TCP_NODELAY corresponds to Nagle == false).
	Nagle bool
	// CorkBytes generalizes Nagle's hold threshold: while data is in
	// flight, available data below this many bytes is held (until an ACK,
	// the threshold filling, or CorkTimeout). Zero means MSS — classic
	// Nagle. Larger values batch more aggressively; an AIMD controller
	// can adjust it at runtime via SetCorkBytes (§5 of the paper).
	CorkBytes int
	// AutoCork, if set, additionally holds sub-MSS data while earlier
	// flushes are still queued on the NIC (the tcp_autocorking analogue).
	AutoCork bool
	// GRO enables receive-side coalescing: data arriving while the
	// receiver's softirq context is backlogged is merged into one
	// processing batch, amortizing the per-delivery cost (the NAPI/GRO
	// analogue). Receive-side batching needs no sender cooperation and
	// composes with — or substitutes for — sender-side corking.
	GRO bool
	// DelAckSegs is the number of received segments that forces an
	// immediate ACK (2 in the kernel).
	DelAckSegs int
	// DelAckTimeout bounds how long an ACK may be delayed.
	DelAckTimeout time.Duration
	// CorkTimeout bounds how long Nagle/auto-corking may hold data
	// (the "200 ms elapse" escape hatch in §2).
	CorkTimeout time.Duration
	// HeaderBytes is the per-wire-segment header overhead (Ethernet +
	// IP + TCP).
	HeaderBytes int
	// RTO is the retransmission timeout: with a lossy link, unACKed data
	// is retransmitted (go-back-N) after this long without progress.
	// Zero disables retransmission — acceptable only on lossless links,
	// where the emulation then has no recovery machinery to pay for.
	RTO time.Duration
	// Exchange enables piggybacking local queue-state metadata on
	// outgoing segments.
	Exchange bool
	// ExchangeInterval rate-limits the exchange; zero attaches state to
	// every outgoing segment ("on-demand" per §5 is the caller invoking
	// RequestExchange).
	ExchangeInterval time.Duration
	// ExchangeTails upgrades the exchange to v2: the cumulative per-queue
	// delay histograms (qstate.WireTails) ride in memory, charged no wire
	// bytes, beside the 36-byte counters, enabling tail estimation. Off (the
	// default — and in every pre-existing experiment) the endpoint behaves
	// exactly like a v1 peer: the mean estimate is unaffected and the
	// receiving estimator's tail abstains.
	ExchangeTails bool
}

// DefaultConfig returns kernel-like defaults (Nagle on, like the kernel —
// Redis turns it off explicitly).
func DefaultConfig() Config {
	return Config{
		MSS:           1448,
		TSOMaxBytes:   64 << 10,
		RecvBuf:       4 << 20,
		Nagle:         true,
		DelAckSegs:    2,
		DelAckTimeout: 500 * time.Microsecond,
		CorkTimeout:   200 * time.Millisecond,
		HeaderBytes:   66,
		Exchange:      true,
	}
}

// Stack is one host's network stack context: the two pinned execution
// contexts from the paper's methodology (application thread and
// IRQ/softIRQ), plus the host's processing-cost profile.
type Stack struct {
	Sim  *sim.Sim
	Name string

	// AppCPU runs application work (request parsing, handling); the
	// kv server and load generator charge it explicitly.
	AppCPU *cpumodel.CPU
	// SoftirqCPU runs stack work: transmit flushes, receive processing,
	// ACK generation.
	SoftirqCPU *cpumodel.CPU

	// TxCosts prices a transmit flush: PerBatch per flush (skb alloc,
	// doorbell), PerItem per MSS segment (checksum, descriptor), PerByte
	// for copies.
	TxCosts cpumodel.Costs
	// RxCosts prices receive processing of one arriving super-packet.
	RxCosts cpumodel.Costs
	// AckTxCost and AckRxCost price pure-ACK generation and processing.
	AckTxCost time.Duration
	AckRxCost time.Duration
}

// NewStack returns a host stack with its own app and softirq CPUs and
// modest default costs; callers calibrate the cost fields for experiments.
func NewStack(s *sim.Sim, name string) *Stack {
	return &Stack{
		Sim:        s,
		Name:       name,
		AppCPU:     cpumodel.New(s, name+"/app"),
		SoftirqCPU: cpumodel.New(s, name+"/softirq"),
		TxCosts:    cpumodel.Costs{PerBatch: 600 * time.Nanosecond, PerItem: 150 * time.Nanosecond, PerByteNS: 0.25},
		RxCosts:    cpumodel.Costs{PerBatch: 800 * time.Nanosecond, PerItem: 200 * time.Nanosecond, PerByteNS: 0.25},
		AckTxCost:  300 * time.Nanosecond,
		AckRxCost:  300 * time.Nanosecond,
	}
}
