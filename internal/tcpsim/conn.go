package tcpsim

import (
	"fmt"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// segment is what travels on the wire: a (possibly empty) payload flush plus
// the piggybacked cumulative ACK, advertised window, sender message
// boundaries, and — when due — the 36-byte queue-state metadata exchange.
// The payload is the stream range [start, start+n): the bytes themselves stay
// in the sender's sndBuf until the receiving application reads them.
type segment struct {
	start  int64 // absolute stream offset of the payload's first byte
	n      int64 // payload bytes
	nsegs  int   // number of MSS wire segments in this flush
	bounds []int64

	ack int64
	wnd int64

	hasState bool
	state    qstate.WireState
	// tails is the v2 frame extension (Config.ExchangeTails): the sender's
	// cumulative per-queue delay histograms, nil on v1 exchanges. A pointer
	// so v1 segments stay as small as before the extension existed.
	tails *qstate.WireTails
}

// Stats counts connection-level events; all fields are cumulative.
type Stats struct {
	Flushes        uint64 // transmit flushes (skbs)
	Segments       uint64 // MSS wire segments
	BytesSent      uint64 // payload bytes transmitted
	Sends          uint64 // application Send calls
	PureAcks       uint64 // standalone ACK segments sent
	AcksSuppressed uint64 // scheduled ACKs that became redundant
	GROBatches     uint64 // receive-side processing batches (GRO on)
	GROMerged      uint64 // extra flushes merged into a batch beyond the first
	Retransmits    uint64 // go-back-N retransmission rounds (RTO fired)
	DupPayloads    uint64 // received payloads discarded as duplicate/out-of-order
	NagleHolds     uint64 // times a sub-MSS tail was held
	CorkTimeouts   uint64 // held data released by the cork timer

	DelAckTimeouts  uint64 // ACKs released by the delayed-ACK timer
	WindowStalls    uint64 // pump() stopped by a closed receive window
	StatesExchanged uint64 // metadata exchanges attached to segments
	StatesDropped   uint64 // inbound exchanges discarded by the fault hook
	StatesDelayed   uint64 // inbound exchanges deferred by the fault hook
	StatesDuped     uint64 // inbound exchanges replayed by the fault hook

	// SentDigest and ReadDigest are not counts but running digests (type
	// digest: FNV-1a over 8-byte words, independent of how calls split the
	// stream) of every byte the application has written to (Send) and read
	// from (Read) this endpoint — the replay seam the model-fidelity
	// harness uses: two runs of a deterministic workload produced
	// byte-identical streams iff their digests match, with nothing
	// retained. An untouched direction reads the FNV-1a offset basis.
	SentDigest uint64
	ReadDigest uint64
}

// Conn is one endpoint of an emulated TCP connection. All methods must be
// called from within the owning simulator's event loop (the usual
// discrete-event discipline); Conn is not safe for concurrent use.
type Conn struct {
	stack *Stack
	cfg   Config
	tx    *netem.Pipe
	peer  *Conn
	name  string

	// ---- sender state ----
	sndUna   int64 // oldest unacknowledged offset
	sndNxt   int64 // next offset to transmit
	sndLimit int64 // highest offset the peer's window permits
	unsent   int64 // bytes written but not yet transmitted
	// sndBuf holds, by reference, every byte written by Send and not yet
	// Read by the peer application: the unsent tail, the bytes in flight
	// (go-back-N resends from it) and the peer's receive queue.
	sndBuf byteFIFO
	// msgEndsUntx are send-call boundaries not yet transmitted (carried
	// to the peer in flushes); msgEndsUnacked are boundaries not yet
	// ACKed (for UnitSends unacked accounting). Both ascending.
	msgEndsUntx    []int64
	msgEndsUnacked []int64
	segEnds        []int64 // ends of in-flight wire segments, ascending
	nodelay        bool
	corkBytes      int64 // Nagle hold threshold (MSS = classic Nagle)
	corkEv         *sim.Event
	rtoEv          *sim.Event
	rtoBackoff     int

	// ---- receiver state ----
	rcvNxt         int64
	rcvWup         int64  // last offset acknowledged to the peer
	rqStart        int64  // next offset Read returns; [rqStart, rcvNxt) is readable
	rbuf           []byte // what Read last returned
	rcvSegEnds     []int64
	rcvMsgEnds     []int64
	ackPendingSegs int64
	ackPendingMsgs int64
	delackEv       *sim.Event
	ackScheduled   bool
	lastAdvWnd     int64
	rxQueue        []*segment // GRO accumulation
	rxScheduled    bool
	needDupAck     bool // force the next scheduled ACK out (loss resync)

	// ---- instrumentation & exchange ----
	instr           Instrumentation
	lastExchange    sim.Time
	exchangedOnce   bool
	exchangeForced  bool
	peerState       qstate.WireState
	peerStateAt     sim.Time
	peerStateValid  bool
	peerTails       qstate.WireTails
	peerTailsValid  bool
	onPeerState     func(qstate.WireState)
	stateFault      func(qstate.WireState) StateFaultAction
	onReadable      func()
	readablePending bool

	stats      Stats
	sent, read digest
}

// Connect establishes a connection between two host stacks over link,
// returning the endpoint on a (transmitting via link.AtoB) and the endpoint
// on b. Both endpoints share cfg; Nagle can be toggled per endpoint at
// runtime.
func Connect(a, b *Stack, link *netem.Link, cfg Config) (*Conn, *Conn) {
	if a.Sim != b.Sim {
		panic("tcpsim: endpoints must share a simulator")
	}
	if cfg.MSS <= 0 || cfg.TSOMaxBytes < cfg.MSS || cfg.RecvBuf <= 0 || cfg.DelAckSegs <= 0 {
		panic(fmt.Sprintf("tcpsim: invalid config %+v", cfg))
	}
	now := a.Sim.Now()
	cork := int64(cfg.CorkBytes)
	if cork <= 0 {
		cork = int64(cfg.MSS)
	}
	endpoint := func(st *Stack, tx *netem.Pipe) *Conn {
		c := &Conn{stack: st, cfg: cfg, tx: tx, name: st.Name, nodelay: !cfg.Nagle,
			corkBytes: cork, sndLimit: cfg.RecvBuf, lastAdvWnd: cfg.RecvBuf, lastExchange: now,
			sent: digest{h: digestBasis}, read: digest{h: digestBasis}}
		c.instr.init(now)
		return c
	}
	ca, cb := endpoint(a, link.AtoB), endpoint(b, link.BtoA)
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

// Name returns the host name of this endpoint.
func (c *Conn) Name() string { return c.name }

// Stack returns the host stack this endpoint runs on.
func (c *Conn) Stack() *Stack { return c.stack }

// Peer returns the other endpoint.
func (c *Conn) Peer() *Conn { return c.peer }

// Stats returns a copy of the endpoint's counters.
func (c *Conn) Stats() Stats {
	s := c.stats
	s.SentDigest, s.ReadDigest = c.sent.sum(), c.read.sum()
	return s
}

// Instr exposes the endpoint's queue instrumentation.
func (c *Conn) Instr() *Instrumentation { return &c.instr }

// SetNoDelay enables (true) or disables (false) TCP_NODELAY — i.e. disables
// or enables Nagle batching. Disabling Nagle releases any held data
// immediately; this is the hook the dynamic toggling policy drives.
func (c *Conn) SetNoDelay(v bool) {
	if c.nodelay == v {
		return
	}
	c.nodelay = v
	if v {
		c.flushHeld()
	}
}

// NoDelay reports whether Nagle batching is currently disabled.
func (c *Conn) NoDelay() bool { return c.nodelay }

// SetCorkBytes adjusts the hold threshold at runtime: while data is in
// flight, available data below n bytes is held. Values below one MSS clamp
// to the MSS (classic Nagle); this is the knob an AIMD batch-limit
// controller drives. Lowering the threshold releases data that no longer
// qualifies for holding.
func (c *Conn) SetCorkBytes(n int) {
	v := int64(n)
	if v < int64(c.cfg.MSS) {
		v = int64(c.cfg.MSS)
	}
	if v < c.corkBytes {
		c.corkBytes = v
		c.pump()
		return
	}
	c.corkBytes = v
}

// CorkBytes returns the current hold threshold.
func (c *Conn) CorkBytes() int { return int(c.corkBytes) }

// OnReadable registers fn to be invoked (at most once per quiescent period)
// when newly delivered data becomes readable. The app must drain with Read
// and re-check Readable after processing, as with edge-triggered epoll.
func (c *Conn) OnReadable(fn func()) { c.onReadable = fn }

// OnPeerState registers fn to be invoked whenever a metadata exchange
// arrives from the peer.
func (c *Conn) OnPeerState(fn func(qstate.WireState)) { c.onPeerState = fn }

// StateFaultAction directs the fate of one arriving metadata exchange — the
// fault-injection surface for the 36-byte queue-state sharing (§3.2): real
// networks drop, delay, and duplicate the packets carrying it, and the
// estimator must degrade gracefully rather than consume garbage.
type StateFaultAction struct {
	// Drop discards the exchange entirely; PeerWireState keeps reporting
	// the previous one.
	Drop bool
	// Delay defers applying the exchange by this long. A delayed exchange
	// can land after a newer one — the reordering case the wire codec's
	// modular deltas must reject.
	Delay time.Duration
	// Duplicate applies the exchange a second time, DupDelay after the
	// first application. The replay carries the old counters but a fresh
	// arrival timestamp — the false-freshness signal metadata-age
	// tracking has to tolerate.
	Duplicate bool
	DupDelay  time.Duration
}

// SetStateFault installs fn as the arbiter of arriving metadata exchanges;
// nil (the default) applies every exchange immediately. The hook runs inside
// the receive path, on the simulator goroutine.
func (c *Conn) SetStateFault(fn func(qstate.WireState) StateFaultAction) { c.stateFault = fn }

// Send writes data to the connection, as one send(2) invocation. The caller
// is responsible for charging its own application CPU cost before calling.
//
// The connection keeps data by reference until the peer application has read
// it: the caller must not modify data after Send. Sending the same slice
// again is allowed.
func (c *Conn) Send(data []byte) {
	if len(data) == 0 {
		return
	}
	now := c.stack.Sim.Now()
	c.sndBuf.push(data)
	c.unsent += int64(len(data))
	end := c.sndNxt + c.unsent
	c.msgEndsUntx = append(c.msgEndsUntx, end)
	c.msgEndsUnacked = append(c.msgEndsUnacked, end)
	c.instr.unacked.track(now, int64(len(data)), 0, 1)
	c.stats.Sends++
	c.sent.fold(data)
	c.pump()
}

// Readable returns the number of delivered, unread bytes.
func (c *Conn) Readable() int { return int(c.rcvNxt - c.rqStart) }

// Read consumes up to max bytes from the receive buffer (all of it if max
// <= 0), returning nil when nothing is readable. The result is the
// connection's own buffer, valid until the next Read. As with Send, the
// caller charges its own app CPU cost.
func (c *Conn) Read(max int) []byte {
	n := c.Readable()
	if n == 0 {
		return nil
	}
	if max > 0 && max < n {
		n = max
	}
	c.rbuf = c.peer.sndBuf.take(c.rbuf[:0], n)
	c.rqStart += int64(n)
	c.read.fold(c.rbuf)

	segs := popLE(&c.rcvSegEnds, c.rqStart)
	msgs := popLE(&c.rcvMsgEnds, c.rqStart)
	c.instr.unread.track(c.stack.Sim.Now(), -int64(n), -segs, -msgs)

	// Window-update ACK: if reading reopened at least half the receive
	// buffer relative to the last advertisement, tell the peer.
	if c.advertiseWnd()-c.lastAdvWnd >= c.cfg.RecvBuf/2 {
		c.scheduleAck()
	}
	return c.rbuf
}

// InFlight returns transmitted-but-unACKed bytes.
func (c *Conn) InFlight() int64 { return c.sndNxt - c.sndUna }

// Unsent returns bytes written but not yet transmitted.
func (c *Conn) Unsent() int64 { return c.unsent }

// Snapshots captures the three local queue snapshots in the given unit.
func (c *Conn) Snapshots(u Unit) (unacked, unread, ackdelay qstate.Snapshot) {
	return c.instr.Snapshots(c.stack.Sim.Now(), u)
}

// PeerWireState returns the most recently received peer metadata, its
// arrival time, and whether any has arrived.
func (c *Conn) PeerWireState() (qstate.WireState, sim.Time, bool) {
	return c.peerState, c.peerStateAt, c.peerStateValid
}

// LocalTails returns the local queues' cumulative delay histograms in unit
// u. Tracking is always on (it is passive); whether the histograms also ride
// the exchange is Config.ExchangeTails.
func (c *Conn) LocalTails(u Unit) qstate.WireTails {
	return c.instr.WireTails(u)
}

// PeerTails returns the peer's delay histograms from its most recent
// tails-carrying (v2) exchange. ok is false until one arrives — in
// particular, forever, against a v1 peer that never sends them.
func (c *Conn) PeerTails() (qstate.WireTails, bool) {
	return c.peerTails, c.peerTailsValid
}

// RequestExchange forces queue-state metadata onto the next outgoing
// segment, sending a pure ACK if nothing else is pending — the "on-demand"
// exchange of §5.
func (c *Conn) RequestExchange() {
	c.exchangeForced = true
	c.scheduleAck()
}

// Close cancels the endpoint's timers. Data in flight is abandoned.
func (c *Conn) Close() {
	c.cancel(&c.corkEv)
	c.cancel(&c.delackEv)
	c.cancel(&c.rtoEv)
	c.onReadable = nil
	c.onPeerState = nil
}

// ---- transmit path ----

// pump transmits what the batching heuristics and the peer's window allow.
func (c *Conn) pump() { c.flush(false) }

// flushHeld transmits everything the window allows, bypassing Nagle and
// auto-corking — used by the cork timer and by SetNoDelay(true).
func (c *Conn) flushHeld() { c.flush(true) }

func (c *Conn) flush(force bool) {
	if force {
		c.cancel(&c.corkEv)
	}
	mss := int64(c.cfg.MSS)
	for c.unsent > 0 {
		avail := c.unsent
		// Generalized Nagle (§5 "Better Batching Heuristics"): hold all
		// available data while peers still owe ACKs and the pile is
		// below the cork threshold (threshold == MSS is classic Nagle).
		// Auto-corking: hold a sub-MSS dribble while the NIC queue has
		// not drained, even with NODELAY set.
		if !force && (!c.nodelay && avail < c.corkBytes && c.InFlight() > 0 ||
			c.cfg.AutoCork && avail < mss && c.tx.QueueDelay() > 0) {
			c.stats.NagleHolds++
			c.armCork()
			return
		}
		// A closed window stalls; so, unforced, does one open less than
		// an MSS: wait for a window update rather than dribbling.
		n := min(avail, c.sndLimit-c.sndNxt, int64(c.cfg.TSOMaxBytes))
		if n <= 0 || !force && n < mss && n < avail {
			c.stats.WindowStalls++
			return
		}
		if !force && n >= mss {
			n -= n % mss // full segments only; tail handled next loop
		}
		c.cancel(&c.corkEv)
		c.transmit(n)
	}
	c.cancel(&c.corkEv)
}

func (c *Conn) transmit(n int64) {
	now := c.stack.Sim.Now()
	c.unsent -= n
	start := c.sndNxt
	c.sndNxt += n
	end := start + n

	mss := int64(c.cfg.MSS)
	nsegs := int((n + mss - 1) / mss)
	c.segEnds = appendSegEnds(c.segEnds, start, end, mss)

	var bounds []int64
	for len(c.msgEndsUntx) > 0 && c.msgEndsUntx[0] <= end {
		bounds = append(bounds, c.msgEndsUntx[0])
		c.msgEndsUntx = c.msgEndsUntx[1:]
	}

	c.instr.unacked.track(now, 0, int64(nsegs), 0)
	c.stats.Flushes++
	c.stats.Segments += uint64(nsegs)
	c.stats.BytesSent += uint64(n)
	c.armRTO()
	c.sendSegment(&segment{start: start, n: n, nsegs: nsegs, bounds: bounds})
}

// sendSegment charges the transmit cost of a payload flush on the softirq
// CPU, then stamps it and puts it on the wire.
func (c *Conn) sendSegment(seg *segment) {
	cost := c.stack.TxCosts.Batch(seg.nsegs, int(seg.n))
	c.stack.SoftirqCPU.Exec(cost, func() {
		c.finishSegment(seg)
		wire := int(seg.n) + seg.nsegs*c.cfg.HeaderBytes
		c.tx.Send(wire, func() { c.peer.receive(seg) })
	})
}

// finishSegment stamps the outgoing segment with the piggybacked ACK,
// advertised window and (when due) the metadata exchange, and accounts the
// ACK as sent.
func (c *Conn) finishSegment(seg *segment) {
	seg.ack = c.rcvNxt
	seg.wnd = c.advertiseWnd()
	c.noteAckSent()
	if c.exchangeDue() {
		seg.hasState = true
		seg.state = c.instr.WireState(c.stack.Sim.Now(), c.cfg.ExchangeUnit)
		if c.cfg.ExchangeTails {
			tails := c.instr.WireTails(c.cfg.ExchangeUnit)
			seg.tails = &tails
		}
		c.lastExchange = c.stack.Sim.Now()
		c.exchangedOnce = true
		c.exchangeForced = false
		c.stats.StatesExchanged++
	}
}

func (c *Conn) exchangeDue() bool {
	if !c.cfg.Exchange {
		return false
	}
	if c.exchangeForced || !c.exchangedOnce {
		return true
	}
	if c.cfg.ExchangeInterval == 0 {
		return true
	}
	return c.stack.Sim.Now().Sub(c.lastExchange) >= c.cfg.ExchangeInterval
}

func (c *Conn) advertiseWnd() int64 {
	return max(0, c.cfg.RecvBuf-(c.rcvNxt-c.rqStart))
}

// noteAckSent records that an acknowledgment covering everything received
// so far has just gone out (standalone or piggybacked): the ackdelay queue
// drains, and the delayed-ACK timer disarms.
func (c *Conn) noteAckSent() {
	now := c.stack.Sim.Now()
	pending := c.rcvNxt - c.rcvWup
	if pending > 0 || c.ackPendingSegs > 0 || c.ackPendingMsgs > 0 {
		c.instr.ackdelay.track(now, -pending, -c.ackPendingSegs, -c.ackPendingMsgs)
	}
	c.rcvWup = c.rcvNxt
	c.ackPendingSegs = 0
	c.ackPendingMsgs = 0
	c.lastAdvWnd = c.advertiseWnd()
	c.cancel(&c.delackEv)
}

// ---- receive path ----

func (c *Conn) receive(seg *segment) {
	if seg.n == 0 {
		c.stack.SoftirqCPU.Exec(c.stack.AckRxCost, func() { c.deliver(seg) })
		return
	}
	if !c.cfg.GRO {
		cost := c.stack.RxCosts.Batch(seg.nsegs, int(seg.n))
		c.stack.SoftirqCPU.Exec(cost, func() { c.deliver(seg) })
		return
	}
	// GRO: park the flush; one poll task drains everything that
	// accumulated while the softirq context was busy, charging the
	// per-delivery cost once for the whole batch.
	c.rxQueue = append(c.rxQueue, seg)
	if c.rxScheduled {
		return
	}
	c.rxScheduled = true
	c.stack.SoftirqCPU.Exec(0, c.groPoll)
}

// groPoll runs when the softirq context reaches the parked work: it takes
// the entire accumulated batch, charges one merged receive cost, and then
// delivers the flushes in order.
func (c *Conn) groPoll() {
	c.rxScheduled = false
	batch := c.rxQueue
	c.rxQueue = nil
	if len(batch) == 0 {
		return
	}
	segs, bytes := 0, 0
	for _, seg := range batch {
		segs += seg.nsegs
		bytes += int(seg.n)
	}
	c.stats.GROBatches++
	c.stats.GROMerged += uint64(len(batch) - 1)
	cost := c.stack.RxCosts.Batch(segs, bytes)
	c.stack.SoftirqCPU.Exec(cost, func() {
		for _, seg := range batch {
			c.deliver(seg)
		}
	})
}

func (c *Conn) deliver(seg *segment) {
	now := c.stack.Sim.Now()
	if seg.hasState {
		c.acceptPeerState(seg.state, seg.tails)
	}
	c.processAck(seg.ack, seg.wnd)

	if seg.n == 0 {
		return
	}
	if seg.start != c.rcvNxt {
		switch {
		case c.cfg.RTO <= 0:
			// Without recovery machinery a sequence hole is a model
			// bug, not a recoverable condition.
			panic(fmt.Sprintf("tcpsim: out-of-order delivery at %d, expected %d (lossy pipe without Config.RTO?)", seg.start, c.rcvNxt))
		case seg.start+seg.n <= c.rcvNxt, seg.start > c.rcvNxt:
			// Pure duplicate (a retransmission raced the ack) or a
			// gap (an earlier segment was lost, and go-back-N drops
			// everything until the retransmission fills the hole):
			// discard, but re-ack so the sender resyncs.
			c.stats.DupPayloads++
			c.needDupAck = true
			c.scheduleAck()
			return
		default:
			// Overlapping retransmission: accept only the new tail.
			seg.n -= c.rcvNxt - seg.start
			seg.start = c.rcvNxt
			seg.nsegs = int((seg.n + int64(c.cfg.MSS) - 1) / int64(c.cfg.MSS))
			popLE(&seg.bounds, c.rcvNxt)
			c.stats.DupPayloads++
		}
	}
	n := seg.n
	c.rcvNxt += n

	c.rcvSegEnds = appendSegEnds(c.rcvSegEnds, seg.start, seg.start+n, int64(c.cfg.MSS))
	c.rcvMsgEnds = append(c.rcvMsgEnds, seg.bounds...)

	c.instr.unread.track(now, n, int64(seg.nsegs), int64(len(seg.bounds)))
	c.instr.ackdelay.track(now, n, int64(seg.nsegs), int64(len(seg.bounds)))
	c.ackPendingSegs += int64(seg.nsegs)
	c.ackPendingMsgs += int64(len(seg.bounds))

	if int(c.ackPendingSegs) >= c.cfg.DelAckSegs {
		c.scheduleAck()
	} else {
		c.armDelack()
	}
	c.notifyReadable()
}

// acceptPeerState routes an arriving metadata exchange through the fault
// hook (if any) before applying it. The tails ride the same frame as the
// counters, so a dropped, delayed or duplicated exchange drops, delays or
// duplicates both together.
func (c *Conn) acceptPeerState(ws qstate.WireState, tails *qstate.WireTails) {
	if c.stateFault == nil {
		c.applyPeerState(ws, tails)
		return
	}
	act := c.stateFault(ws)
	if act.Drop {
		c.stats.StatesDropped++
		return
	}
	if act.Delay > 0 {
		c.stats.StatesDelayed++
		c.stack.Sim.After(act.Delay, func() { c.applyPeerState(ws, tails) })
	} else {
		c.applyPeerState(ws, tails)
	}
	if act.Duplicate {
		c.stats.StatesDuped++
		c.stack.Sim.After(act.Delay+act.DupDelay, func() { c.applyPeerState(ws, tails) })
	}
}

// applyPeerState records ws as the peer's latest exchange, stamped with the
// application time (which, under a Delay fault, is later than the wire
// arrival — exactly what a delayed packet looks like). A v1 exchange (nil
// tails) leaves any previously received histograms in place: the estimator
// then sees zero bucket deltas and abstains on its own.
func (c *Conn) applyPeerState(ws qstate.WireState, tails *qstate.WireTails) {
	c.peerState = ws
	c.peerStateAt = c.stack.Sim.Now()
	c.peerStateValid = true
	if tails != nil {
		c.peerTails = *tails
		c.peerTailsValid = true
	}
	if c.onPeerState != nil {
		c.onPeerState(ws)
	}
}

func (c *Conn) processAck(ack, wnd int64) {
	if ack > c.sndUna {
		now := c.stack.Sim.Now()
		delta := ack - c.sndUna
		segs := popLE(&c.segEnds, ack)
		msgs := popLE(&c.msgEndsUnacked, ack)
		c.instr.unacked.track(now, -delta, -segs, -msgs)
		c.sndUna = ack
		c.rtoBackoff = 0
		c.cancel(&c.rtoEv)
		if c.InFlight() > 0 {
			c.armRTO() // a no-op without Config.RTO
		}
	}
	if limit := ack + wnd; limit > c.sndLimit {
		c.sndLimit = limit
	}
	c.pump()
}

// ---- loss recovery (go-back-N) ----

func (c *Conn) armRTO() {
	if c.rtoEv != nil || c.cfg.RTO <= 0 {
		return
	}
	c.rtoEv = c.stack.Sim.After(c.cfg.RTO<<uint(c.rtoBackoff), c.rtoFire)
}

// rtoFire retransmits everything unACKed in TSO-sized flushes. Counters are
// not re-tracked: the bytes never left the unacked queue, so their measured
// residency naturally includes the recovery delay.
func (c *Conn) rtoFire() {
	c.rtoEv = nil
	if c.InFlight() == 0 {
		return
	}
	c.stats.Retransmits++
	c.rtoBackoff = min(c.rtoBackoff+1, 6)
	mss := int64(c.cfg.MSS)
	for start, end := c.sndUna, int64(0); start < c.sndNxt; start = end {
		n := min(c.sndNxt-start, int64(c.cfg.TSOMaxBytes))
		end = start + n
		nsegs := int((n + mss - 1) / mss)
		var bounds []int64
		for _, b := range c.msgEndsUnacked {
			if b > start && b <= end {
				bounds = append(bounds, b)
			}
		}
		c.sendSegment(&segment{start: start, n: n, nsegs: nsegs, bounds: bounds})
	}
	c.armRTO()
}

// scheduleAck queues a standalone ACK through the softirq CPU. Multiple
// requests coalesce: while one is scheduled, further requests are no-ops,
// and the ACK captures the final receive state when it actually goes out.
func (c *Conn) scheduleAck() {
	if c.ackScheduled {
		return
	}
	c.ackScheduled = true
	c.stack.SoftirqCPU.Exec(c.stack.AckTxCost, func() {
		c.ackScheduled = false
		needWnd := c.advertiseWnd()-c.lastAdvWnd >= c.cfg.RecvBuf/2
		if c.rcvNxt == c.rcvWup && !needWnd && !c.exchangeForced && !c.needDupAck {
			c.stats.AcksSuppressed++
			return
		}
		c.needDupAck = false
		seg := &segment{}
		c.finishSegment(seg)
		c.stats.PureAcks++
		c.tx.Send(c.cfg.HeaderBytes, func() { c.peer.receive(seg) })
	})
}

// ---- timers ----

func (c *Conn) armCork() {
	if c.corkEv != nil || c.cfg.CorkTimeout <= 0 {
		return
	}
	c.corkEv = c.stack.Sim.After(c.cfg.CorkTimeout, func() {
		c.corkEv = nil
		c.stats.CorkTimeouts++
		c.flushHeld()
	})
}

// cancel disarms one of the endpoint's timers, if armed.
func (c *Conn) cancel(ev **sim.Event) {
	c.stack.Sim.Cancel(*ev)
	*ev = nil
}

func (c *Conn) armDelack() {
	if c.delackEv != nil || c.cfg.DelAckTimeout <= 0 {
		return
	}
	c.delackEv = c.stack.Sim.After(c.cfg.DelAckTimeout, func() {
		c.delackEv = nil
		c.stats.DelAckTimeouts++
		c.scheduleAck()
	})
}

func (c *Conn) notifyReadable() {
	if c.onReadable == nil || c.readablePending {
		return
	}
	c.readablePending = true
	c.stack.Sim.After(0, func() {
		c.readablePending = false
		if c.onReadable != nil {
			c.onReadable()
		}
	})
}

// appendSegEnds appends the end offsets of the MSS-sized wire segments that
// carry the non-empty stream range [start, end).
func appendSegEnds(dst []int64, start, end, mss int64) []int64 {
	for e := start + mss; e < end; e += mss {
		dst = append(dst, e)
	}
	return append(dst, end)
}

// popLE removes leading elements of *s that are <= limit and returns how
// many were removed. The slice must be ascending.
func popLE(s *[]int64, limit int64) int64 {
	i := 0
	for i < len(*s) && (*s)[i] <= limit {
		i++
	}
	*s = (*s)[i:]
	return int64(i)
}
