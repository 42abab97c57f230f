package tcpsim

import (
	"errors"
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
//
// A segment belongs to the Conn that sent it and to exactly one event or
// receive queue at a time; once the receiver has delivered it, it goes back to
// the sender's free list, bounds buffer included. One the wire drops is simply
// never returned.
type segment struct {
	start  int64 // absolute stream offset of the payload's first byte
	n      int64 // payload bytes
	nsegs  int   // number of MSS wire segments in this flush
	bounds []int64
	pooled bool // on the free list: an event firing with it is a use after free

	ack int64
	wnd int64

	// The metadata exchange, when hasState; on a v2 exchange
	// (Config.ExchangeTails) hasTails is set too and tails holds the sender's
	// cumulative per-queue delay histograms.
	hasState, hasTails bool
	state              qstate.WireState
	tails              qstate.WireTails
}

// The kinds of event a Conn schedules on itself (or, for evArrive, on its
// peer); HandleEvent is the one switch that dispatches them. Those taking a
// segment carry it as the event argument.
const (
	evTxDone    = iota // softirq finished a flush's transmit work: stamp it, put it on the wire
	evArrive           // a segment reached this end of the wire
	evRxDone           // softirq finished receive processing of one segment
	evGROPoll          // softirq reached the parked GRO work
	evGRODone          // softirq finished the merged GRO batch
	evAckTx            // softirq reached a scheduled standalone ACK
	evDelack           // delayed-ACK timer
	evRTO              // retransmission timer
	evCork             // cork (Nagle hold) timer
	evReadable         // tell the application data is readable
	evPeerState        // a metadata exchange the fault hook deferred is due
)

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
	// digest: four interleaved FNV-1a word lanes, independent of how calls
	// split the stream) of every byte the application has written to (Send)
	// and read from (Read) this endpoint — the replay seam the model-fidelity
	// harness uses: byte-identical streams always have equal digests, and
	// streams that differ share one only by a 64-bit hash collision, with
	// nothing retained. An untouched direction reads the FNV-1a offset basis.
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
	msgEndsUntx    offsets
	msgEndsUnacked offsets
	segEnds        offsets // ends of in-flight wire segments
	nodelay        bool
	corkBytes      int64 // Nagle hold threshold (MSS = classic Nagle)
	corkEv         sim.Timer
	rtoEv          sim.Timer
	rtoBackoff     int
	segFree        []*segment // segments this endpoint sent, back for reuse

	// ---- receiver state ----
	rcvNxt         int64
	rcvWup         int64  // last offset acknowledged to the peer
	rqStart        int64  // next offset Read returns; [rqStart, rcvNxt) is readable
	rbuf           []byte // what Read last returned
	rcvSegEnds     offsets
	rcvMsgEnds     offsets
	ackPendingSegs int64
	ackPendingMsgs int64
	delackEv       sim.Timer
	ackScheduled   bool
	lastAdvWnd     int64
	rxQueue        []*segment // GRO accumulation
	rxBatch        []*segment // the batch the softirq context is processing
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
			corkBytes: cork, sndLimit: cfg.RecvBuf, lastAdvWnd: cfg.RecvBuf, lastExchange: now}
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
		c.flush(true)
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
		c.flush(false)
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
//
//e2e:hotpath
func (c *Conn) Send(data []byte) {
	if len(data) == 0 {
		return
	}
	now := c.stack.Sim.Now()
	c.sndBuf.push(data)
	c.unsent += int64(len(data))
	end := c.sndNxt + c.unsent
	c.msgEndsUntx.Push(end)
	c.msgEndsUnacked.Push(end)
	c.instr.unacked.track(now, int64(len(data)), 0, 1)
	c.stats.Sends++
	c.sent.fold(data)
	c.flush(false)
}

// Readable returns the number of delivered, unread bytes.
func (c *Conn) Readable() int { return int(c.rcvNxt - c.rqStart) }

// Read consumes up to max bytes from the receive buffer (all of it if max
// <= 0), returning nil when nothing is readable. The result is the
// connection's own buffer, valid until the next Read. As with Send, the
// caller charges its own app CPU cost.
//
//e2e:hotpath
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
}

// ---- transmit path ----

// flush transmits what the peer's window allows and — unless force, which
// the cork timer and SetNoDelay(true) use — the batching heuristics too.
//
//e2e:hotpath
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
			c.arm(&c.corkEv, c.cfg.CorkTimeout, evCork)
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

	seg := c.newSegment(start, n)
	pushSegEnds(&c.segEnds, start, end, int64(c.cfg.MSS))
	for _, b := range c.msgEndsUntx.Live() {
		if b > end {
			break
		}
		//lint:ignore e2elint/hotpath a recycled segment's bounds keep their capacity
		seg.bounds = append(seg.bounds, b)
	}
	popLE(&c.msgEndsUntx, end)

	c.instr.unacked.track(now, 0, int64(seg.nsegs), 0)
	c.stats.Flushes++
	c.stats.Segments += uint64(seg.nsegs)
	c.stats.BytesSent += uint64(n)
	c.armRTO()
	c.sendSegment(seg)
}

// newSegment returns a segment for the stream range [start, start+n), off
// the free list when it has one. Not inlined, so that the escape analyzer
// reports the refill here, where its justification is, and not in each caller.
//
//go:noinline
func (c *Conn) newSegment(start, n int64) *segment {
	var seg *segment
	if k := len(c.segFree) - 1; k >= 0 {
		seg, c.segFree = c.segFree[k], c.segFree[:k]
	} else {
		//lint:ignore e2elint/escapes refills the free list: runs until it holds the peak number of segments in flight
		seg = &segment{}
	}
	mss := int64(c.cfg.MSS)
	seg.start, seg.n, seg.nsegs, seg.pooled = start, n, int((n+mss-1)/mss), false
	return seg
}

var errPooled = errors.New("tcpsim: segment recycled while an event or queue still held it")

// recycle takes back a segment this endpoint sent, once the peer has
// delivered it and nothing refers to it any more.
func (c *Conn) recycle(seg *segment) {
	if seg.pooled {
		panic(errPooled)
	}
	seg.bounds, seg.hasState, seg.hasTails, seg.pooled = seg.bounds[:0], false, false, true
	//lint:ignore e2elint/hotpath the free list grows to the peak number of segments in flight, then is reused
	c.segFree = append(c.segFree, seg)
}

// sendSegment charges the transmit cost of a payload flush on the softirq
// CPU; evTxDone then stamps it and puts it on the wire.
func (c *Conn) sendSegment(seg *segment) {
	c.stack.SoftirqCPU.Exec(c.stack.TxCosts.Batch(seg.nsegs, int(seg.n)), c, evTxDone, seg)
}

// HandleEvent dispatches the endpoint's scheduled events (sim.Handler).
//
//e2e:hotpath
func (c *Conn) HandleEvent(kind int, arg any) {
	seg, _ := arg.(*segment)
	if seg != nil && seg.pooled {
		panic(errPooled)
	}
	switch kind {
	case evTxDone:
		c.finishSegment(seg)
		c.tx.Send(int(seg.n)+seg.nsegs*c.cfg.HeaderBytes, c.peer, evArrive, seg)
	case evArrive:
		c.receive(seg)
	case evRxDone:
		c.deliver(seg)
		c.peer.recycle(seg)
	case evGROPoll:
		c.groPoll()
	case evGRODone:
		for _, seg := range c.rxBatch {
			c.deliver(seg)
			c.peer.recycle(seg)
		}
		c.rxBatch = c.rxBatch[:0]
	case evAckTx:
		c.sendAck()
	case evDelack:
		c.delackEv = sim.Timer{}
		c.stats.DelAckTimeouts++
		c.scheduleAck()
	case evRTO:
		c.rtoFire()
	case evCork:
		c.corkEv = sim.Timer{}
		c.stats.CorkTimeouts++
		c.flush(true)
	case evReadable:
		c.readablePending = false
		if c.onReadable != nil {
			c.onReadable()
		}
	case evPeerState:
		c.applyPeerState(seg)
	}
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
			seg.tails, seg.hasTails = c.instr.WireTails(c.cfg.ExchangeUnit), true
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
		c.stack.SoftirqCPU.Exec(c.stack.AckRxCost, c, evRxDone, seg)
		return
	}
	if !c.cfg.GRO {
		c.stack.SoftirqCPU.Exec(c.stack.RxCosts.Batch(seg.nsegs, int(seg.n)), c, evRxDone, seg)
		return
	}
	// GRO: park the flush; one poll task drains everything that
	// accumulated while the softirq context was busy, charging the
	// per-delivery cost once for the whole batch.
	//lint:ignore e2elint/hotpath rxQueue and rxBatch swap; both keep the capacity of the largest batch seen
	c.rxQueue = append(c.rxQueue, seg)
	if c.rxScheduled {
		return
	}
	c.rxScheduled = true
	c.stack.SoftirqCPU.Exec(0, c, evGROPoll, nil)
}

// groPoll runs when the softirq context reaches the parked work: it takes
// the entire accumulated batch and charges one merged receive cost; evGRODone
// then delivers the flushes in order. The softirq CPU is FIFO, so the previous
// batch is done (rxBatch is empty) before the next poll runs.
func (c *Conn) groPoll() {
	c.rxScheduled = false
	c.rxBatch, c.rxQueue = c.rxQueue, c.rxBatch
	if len(c.rxBatch) == 0 {
		return
	}
	segs, bytes := 0, 0
	for _, seg := range c.rxBatch {
		segs += seg.nsegs
		bytes += int(seg.n)
	}
	c.stats.GROBatches++
	c.stats.GROMerged += uint64(len(c.rxBatch) - 1)
	c.stack.SoftirqCPU.Exec(c.stack.RxCosts.Batch(segs, bytes), c, evGRODone, nil)
}

func (c *Conn) deliver(seg *segment) {
	now := c.stack.Sim.Now()
	if seg.hasState {
		c.acceptPeerState(seg)
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
			for len(seg.bounds) > 0 && seg.bounds[0] <= c.rcvNxt {
				seg.bounds = seg.bounds[1:]
			}
			c.stats.DupPayloads++
		}
	}
	n := seg.n
	c.rcvNxt += n

	pushSegEnds(&c.rcvSegEnds, seg.start, seg.start+n, int64(c.cfg.MSS))
	for _, b := range seg.bounds {
		c.rcvMsgEnds.Push(b)
	}

	c.instr.unread.track(now, n, int64(seg.nsegs), int64(len(seg.bounds)))
	c.instr.ackdelay.track(now, n, int64(seg.nsegs), int64(len(seg.bounds)))
	c.ackPendingSegs += int64(seg.nsegs)
	c.ackPendingMsgs += int64(len(seg.bounds))

	if int(c.ackPendingSegs) >= c.cfg.DelAckSegs {
		c.scheduleAck()
	} else {
		c.arm(&c.delackEv, c.cfg.DelAckTimeout, evDelack)
	}
	c.notifyReadable()
}

// acceptPeerState routes the metadata exchange seg carries through the fault
// hook (if any) before applying it. The tails ride the same frame as the
// counters, so a dropped, delayed or duplicated exchange drops, delays or
// duplicates both together.
func (c *Conn) acceptPeerState(seg *segment) {
	if c.stateFault == nil {
		c.applyPeerState(seg)
		return
	}
	act := c.stateFault(seg.state)
	if act.Drop {
		c.stats.StatesDropped++
		return
	}
	var held *segment // a deferred exchange outlives its segment: it travels on in a copy
	if act.Delay > 0 || act.Duplicate {
		//lint:ignore e2elint/escapes fault injection only, never taken on a healthy link
		held = &segment{hasState: true, hasTails: seg.hasTails, state: seg.state, tails: seg.tails}
	}
	now := c.stack.Sim.Now()
	if act.Delay > 0 {
		c.stats.StatesDelayed++
		c.stack.Sim.Post(now.Add(act.Delay), c, evPeerState, held)
	} else {
		c.applyPeerState(seg)
	}
	if act.Duplicate {
		c.stats.StatesDuped++
		c.stack.Sim.Post(now.Add(act.Delay+act.DupDelay), c, evPeerState, held)
	}
}

// applyPeerState records the exchange seg carries as the peer's latest,
// stamped with the application time (which, under a Delay fault, is later
// than the wire arrival — exactly what a delayed packet looks like). A v1
// exchange (no tails) leaves any previously received histograms in place: the
// estimator then sees zero bucket deltas and abstains on its own.
func (c *Conn) applyPeerState(seg *segment) {
	c.peerState = seg.state
	c.peerStateAt = c.stack.Sim.Now()
	c.peerStateValid = true
	if seg.hasTails {
		c.peerTails = seg.tails
		c.peerTailsValid = true
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
	c.flush(false)
}

// ---- loss recovery (go-back-N) ----

func (c *Conn) armRTO() { c.arm(&c.rtoEv, c.cfg.RTO<<uint(c.rtoBackoff), evRTO) }

// rtoFire retransmits everything unACKed in TSO-sized flushes. Counters are
// not re-tracked: the bytes never left the unacked queue, so their measured
// residency naturally includes the recovery delay.
func (c *Conn) rtoFire() {
	c.rtoEv = sim.Timer{}
	if c.InFlight() == 0 {
		return
	}
	c.stats.Retransmits++
	c.rtoBackoff = min(c.rtoBackoff+1, 6)
	for start, end := c.sndUna, int64(0); start < c.sndNxt; start = end {
		n := min(c.sndNxt-start, int64(c.cfg.TSOMaxBytes))
		end = start + n
		seg := c.newSegment(start, n)
		for _, b := range c.msgEndsUnacked.Live() {
			if b > start && b <= end {
				//lint:ignore e2elint/hotpath a recycled segment's bounds keep their capacity
				seg.bounds = append(seg.bounds, b)
			}
		}
		c.sendSegment(seg)
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
	c.stack.SoftirqCPU.Exec(c.stack.AckTxCost, c, evAckTx, nil)
}

// sendAck puts the scheduled standalone ACK on the wire, unless a segment
// sent in the meantime has made it redundant.
func (c *Conn) sendAck() {
	c.ackScheduled = false
	needWnd := c.advertiseWnd()-c.lastAdvWnd >= c.cfg.RecvBuf/2
	if c.rcvNxt == c.rcvWup && !needWnd && !c.exchangeForced && !c.needDupAck {
		c.stats.AcksSuppressed++
		return
	}
	c.needDupAck = false
	seg := c.newSegment(0, 0)
	c.finishSegment(seg)
	c.stats.PureAcks++
	c.tx.Send(c.cfg.HeaderBytes, c.peer, evArrive, seg)
}

// ---- timers ----

// arm starts one of the endpoint's timers, d from now, unless it is already
// running or d says the timer is not configured. The event that fires it
// clears *ev again.
func (c *Conn) arm(ev *sim.Timer, d time.Duration, kind int) {
	if *ev == (sim.Timer{}) && d > 0 {
		*ev = c.stack.Sim.Post(c.stack.Sim.Now().Add(d), c, kind, nil)
	}
}

// cancel disarms one of the endpoint's timers, if armed.
func (c *Conn) cancel(ev *sim.Timer) {
	c.stack.Sim.Cancel(*ev)
	*ev = sim.Timer{}
}

func (c *Conn) notifyReadable() {
	if c.onReadable == nil || c.readablePending {
		return
	}
	c.readablePending = true
	c.stack.Sim.Post(c.stack.Sim.Now(), c, evReadable, nil)
}
