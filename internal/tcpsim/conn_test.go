package tcpsim

import (
	"bytes"
	"testing"
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// testNet builds a two-host topology with zero processing costs and a fast,
// low-latency link so protocol behaviour can be asserted in isolation.
func testNet(t testing.TB, cfg Config) (*sim.Sim, *Conn, *Conn) {
	t.Helper()
	s := sim.New(1)
	a := NewStack(s, "client")
	b := NewStack(s, "server")
	for _, st := range []*Stack{a, b} {
		st.TxCosts = cpumodel.Costs{}
		st.RxCosts = cpumodel.Costs{}
		st.AckTxCost = 0
		st.AckRxCost = 0
	}
	link := netem.NewLink(s, "lnk", netem.Config{Propagation: time.Microsecond})
	ca, cb := Connect(a, b, link, cfg)
	return s, ca, cb
}

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Nagle = true
	return cfg
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func TestSmallSendNothingInFlightGoesImmediately(t *testing.T) {
	s, ca, cb := testNet(t, fastCfg())
	ca.Send(payload(100)) // Nagle enabled, but nothing in flight
	s.RunUntil(sim.Time(10 * time.Microsecond))
	if cb.Readable() != 100 {
		t.Fatalf("server readable = %d, want 100", cb.Readable())
	}
	if ca.Stats().NagleHolds != 0 {
		t.Fatal("Nagle held a send with nothing in flight")
	}
}

func TestNagleHoldsTailUntilAck(t *testing.T) {
	cfg := fastCfg()
	s, ca, cb := testNet(t, cfg)
	// 16 KiB: 11 full MSS go out, 456-byte tail is held.
	ca.Send(payload(16384))
	s.RunUntil(sim.Time(1500 * time.Nanosecond)) // before the ack returns at 2µs
	full := int64(16384/cfg.MSS) * int64(cfg.MSS)
	if got := ca.InFlight(); got != full {
		t.Fatalf("in flight = %d, want %d (full segments only)", got, full)
	}
	if ca.Unsent() != 16384-full {
		t.Fatalf("unsent = %d, want tail %d", ca.Unsent(), 16384-full)
	}
	if ca.Stats().NagleHolds == 0 {
		t.Fatal("expected a Nagle hold")
	}
	// After the ack round trip the tail must flow.
	s.RunUntil(sim.Time(50 * time.Microsecond))
	if cb.Readable() != 16384 {
		t.Fatalf("server readable = %d, want 16384 after ack releases tail", cb.Readable())
	}
	if ca.Stats().CorkTimeouts != 0 {
		t.Fatal("tail released by cork timeout, want ack release")
	}
}

func TestNoDelaySendsTailImmediately(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(16384))
	s.RunUntil(sim.Time(10 * time.Microsecond))
	if cb.Readable() != 16384 {
		t.Fatalf("server readable = %d, want 16384 without ack wait", cb.Readable())
	}
	if ca.Stats().NagleHolds != 0 {
		t.Fatal("NODELAY endpoint recorded a Nagle hold")
	}
}

func TestSetNoDelayFlushesHeldTail(t *testing.T) {
	s, ca, cb := testNet(t, fastCfg())
	ca.Send(payload(16384))
	s.RunUntil(sim.Time(1500 * time.Nanosecond))
	if ca.Unsent() == 0 {
		t.Fatal("precondition: tail should be held")
	}
	ca.SetNoDelay(true)
	if !ca.NoDelay() {
		t.Fatal("NoDelay() = false after SetNoDelay(true)")
	}
	s.RunUntil(sim.Time(10 * time.Microsecond))
	if cb.Readable() != 16384 {
		t.Fatalf("server readable = %d after SetNoDelay flush", cb.Readable())
	}
}

func TestCorkTimeoutReleasesTail(t *testing.T) {
	cfg := fastCfg()
	cfg.CorkTimeout = 30 * time.Microsecond
	cfg.DelAckTimeout = time.Hour // never ack via timer
	cfg.DelAckSegs = 1000         // never ack via count
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(100)) // goes out (nothing in flight), never acked
	ca.Send(payload(50))  // held: in-flight data
	s.RunUntil(sim.Time(20 * time.Microsecond))
	if cb.Readable() != 100 {
		t.Fatalf("readable = %d, want first send only", cb.Readable())
	}
	s.RunUntil(sim.Time(100 * time.Microsecond))
	if cb.Readable() != 150 {
		t.Fatalf("readable = %d, want 150 after cork timeout", cb.Readable())
	}
	if ca.Stats().CorkTimeouts != 1 {
		t.Fatalf("cork timeouts = %d, want 1", ca.Stats().CorkTimeouts)
	}
}

func TestDataArrivesIntact(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	want := payload(40000) // several TSO flushes
	ca.Send(want)
	s.RunUntil(sim.Time(time.Millisecond))
	got := cb.Read(0)
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len(got), len(want))
	}
	if cb.Readable() != 0 {
		t.Fatal("leftover readable after full read")
	}
}

func TestReadPartial(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(1000))
	s.RunUntil(sim.Time(100 * time.Microsecond))
	first := cb.Read(300)
	if len(first) != 300 {
		t.Fatalf("partial read = %d, want 300", len(first))
	}
	rest := cb.Read(0)
	if len(rest) != 700 {
		t.Fatalf("rest = %d, want 700", len(rest))
	}
	if cb.Read(10) != nil {
		t.Fatal("read from empty buffer returned data")
	}
}

func TestDelayedAckSecondSegmentForcesAck(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.DelAckTimeout = time.Hour
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(cfg.MSS)) // one full segment: ack delayed
	s.RunUntil(sim.Time(20 * time.Microsecond))
	if ca.InFlight() == 0 {
		t.Fatal("single segment was acked without timer or second segment")
	}
	ca.Send(payload(cfg.MSS)) // second segment forces the ack
	s.RunUntil(sim.Time(60 * time.Microsecond))
	if ca.InFlight() != 0 {
		t.Fatalf("in flight = %d after second segment, want 0", ca.InFlight())
	}
	_, _, ackdelay := cb.Snapshots(UnitBytes)
	_ = ackdelay
	if cb.Stats().DelAckTimeouts != 0 {
		t.Fatal("delack fired by timer, want count trigger")
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.DelAckTimeout = 40 * time.Microsecond
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(cfg.MSS))
	s.RunUntil(sim.Time(20 * time.Microsecond))
	if ca.InFlight() == 0 {
		t.Fatal("acked too early")
	}
	s.RunUntil(sim.Time(200 * time.Microsecond))
	if ca.InFlight() != 0 {
		t.Fatal("delack timer never fired")
	}
	if cb.Stats().DelAckTimeouts != 1 {
		t.Fatalf("delack timeouts = %d, want 1", cb.Stats().DelAckTimeouts)
	}
}

func TestBigSuperPacketAcksImmediately(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.DelAckTimeout = time.Hour
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(10 * cfg.MSS)) // one flush, 10 segments >= DelAckSegs
	s.RunUntil(sim.Time(100 * time.Microsecond))
	if ca.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0 (multi-segment flush acks immediately)", ca.InFlight())
	}
	if cb.Stats().PureAcks == 0 {
		t.Fatal("no pure ack was sent")
	}
}

func TestOnReadableFiresOncePerDeliveryBurst(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	fires := 0
	cb.OnReadable(func() { fires++ })
	ca.Send(payload(100))
	s.RunUntil(sim.Time(50 * time.Microsecond))
	if fires != 1 {
		t.Fatalf("OnReadable fired %d times, want 1", fires)
	}
	ca.Send(payload(100))
	s.RunUntil(sim.Time(100 * time.Microsecond))
	if fires != 2 {
		t.Fatalf("OnReadable fired %d times, want 2", fires)
	}
}

func TestFlowControlStallsAndRecovers(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.RecvBuf = 8192
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(100000))
	s.RunUntil(sim.Time(time.Millisecond))
	if cb.Readable() > int(cfg.RecvBuf) {
		t.Fatalf("receive buffer overfilled: %d > %d", cb.Readable(), cfg.RecvBuf)
	}
	if ca.Stats().WindowStalls == 0 {
		t.Fatal("expected window stalls")
	}
	// Drain in pieces; everything must eventually arrive.
	total := 0
	for i := 0; i < 1000 && total < 100000; i++ {
		total += len(cb.Read(0))
		s.RunFor(100 * time.Microsecond)
	}
	if total != 100000 {
		t.Fatalf("total received = %d, want 100000", total)
	}
}

func TestUnackedQueueTracking(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, _ := testNet(t, cfg)
	ua0, _, _ := ca.Snapshots(UnitBytes)
	ca.Send(payload(2000))
	un, _, _ := ca.Instr().Sizes(UnitBytes)
	if un != 2000 {
		t.Fatalf("unacked bytes = %d, want 2000", un)
	}
	unS, _, _ := ca.Instr().Sizes(UnitSends)
	if unS != 1 {
		t.Fatalf("unacked sends = %d, want 1", unS)
	}
	s.RunUntil(sim.Time(time.Millisecond))
	un, _, _ = ca.Instr().Sizes(UnitBytes)
	if un != 0 {
		t.Fatalf("unacked bytes = %d after ack, want 0", un)
	}
	unP, _, _ := ca.Instr().Sizes(UnitPackets)
	if unP != 0 {
		t.Fatalf("unacked packets = %d after ack, want 0", unP)
	}
	ua1, _, _ := ca.Snapshots(UnitBytes)
	avgs := qstate.GetAvgs(ua0, ua1)
	if !avgs.Valid || avgs.Departures != 2000 {
		t.Fatalf("unacked avgs = %+v, want 2000 departures", avgs)
	}
	if avgs.Latency <= 0 || avgs.Latency > time.Millisecond {
		t.Fatalf("unacked latency = %v, implausible", avgs.Latency)
	}
}

func TestUnreadQueueTracksReads(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(3000))
	s.RunUntil(sim.Time(100 * time.Microsecond))
	_, ur, _ := cb.Instr().Sizes(UnitBytes)
	if ur != 3000 {
		t.Fatalf("unread bytes = %d, want 3000", ur)
	}
	_, urM, _ := cb.Instr().Sizes(UnitSends)
	if urM != 1 {
		t.Fatalf("unread sends = %d, want 1", urM)
	}
	cb.Read(1000)
	_, ur, _ = cb.Instr().Sizes(UnitBytes)
	if ur != 2000 {
		t.Fatalf("unread bytes = %d after partial read, want 2000", ur)
	}
	_, urM, _ = cb.Instr().Sizes(UnitSends)
	if urM != 1 {
		t.Fatalf("unread sends = %d, want 1 (message not fully consumed)", urM)
	}
	cb.Read(0)
	_, ur, _ = cb.Instr().Sizes(UnitBytes)
	_, urM, _ = cb.Instr().Sizes(UnitSends)
	if ur != 0 || urM != 0 {
		t.Fatalf("unread after full read: bytes=%d sends=%d", ur, urM)
	}
}

func TestAckDelayQueueDrainsOnAck(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.DelAckTimeout = 40 * time.Microsecond
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(500))
	s.RunUntil(sim.Time(10 * time.Microsecond))
	_, _, ad := cb.Instr().Sizes(UnitBytes)
	if ad != 500 {
		t.Fatalf("ackdelay = %d before ack, want 500", ad)
	}
	s.RunUntil(sim.Time(200 * time.Microsecond))
	_, _, ad = cb.Instr().Sizes(UnitBytes)
	if ad != 0 {
		t.Fatalf("ackdelay = %d after ack, want 0", ad)
	}
}

func TestMetadataExchangeArrives(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(1000))
	s.RunUntil(sim.Time(100 * time.Microsecond))
	if ca.Stats().StatesExchanged == 0 {
		t.Fatal("no metadata exchange left with a data segment")
	}
	if _, at, ok := cb.PeerWireState(); !ok || at < 0 {
		t.Fatalf("PeerWireState = %v, %v", at, ok)
	}
	// After the (delayed) ack returns, a forced exchange must carry the
	// client's 1000 departed unacked-bytes.
	s.RunUntil(sim.Time(2 * time.Millisecond))
	ca.RequestExchange()
	s.RunFor(100 * time.Microsecond)
	ws, _, _ := cb.PeerWireState()
	if ws.Unacked.Total != 1000 {
		t.Fatalf("peer-visible unacked total = %d, want 1000", ws.Unacked.Total)
	}
}

func TestExchangeIntervalRateLimits(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.ExchangeInterval = time.Second // effectively once
	s, ca, cb := testNet(t, cfg)
	for i := 0; i < 10; i++ {
		ca.Send(payload(100))
		s.RunFor(50 * time.Microsecond)
	}
	cb.Read(0)
	if got := ca.Stats().StatesExchanged; got != 1 {
		t.Fatalf("exchanges = %d, want 1 (rate limited)", got)
	}
}

func TestRequestExchangeForcesState(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.ExchangeInterval = time.Hour
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(100))
	s.RunUntil(sim.Time(100 * time.Microsecond))
	before := ca.Stats().StatesExchanged
	ca.RequestExchange()
	s.RunFor(100 * time.Microsecond)
	if got := ca.Stats().StatesExchanged; got != before+1 {
		t.Fatalf("exchanges = %d, want %d after RequestExchange", got, before+1)
	}
	if _, _, ok := cb.PeerWireState(); !ok {
		t.Fatal("peer never saw the forced exchange")
	}
}

func TestExchangeDisabled(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.Exchange = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(5000))
	s.RunUntil(sim.Time(time.Millisecond))
	if ca.Stats().StatesExchanged != 0 {
		t.Fatal("exchange occurred despite being disabled")
	}
	if _, _, ok := cb.PeerWireState(); ok {
		t.Fatal("peer state present despite disabled exchange")
	}
}

func TestPingPongLatencySanity(t *testing.T) {
	// A full request/response round trip over an otherwise idle network
	// should take roughly 2×propagation plus processing epsilon.
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	var done sim.Time
	cb.OnReadable(func() {
		cb.Read(0)
		cb.Send(payload(5)) // tiny response
	})
	ca.OnReadable(func() {
		ca.Read(0)
		done = s.Now()
	})
	ca.Send(payload(100))
	s.RunUntil(sim.Time(time.Millisecond))
	if done == 0 {
		t.Fatal("response never arrived")
	}
	rtt := done.Duration()
	if rtt < 2*time.Microsecond || rtt > 20*time.Microsecond {
		t.Fatalf("round trip = %v, want ~2µs-20µs", rtt)
	}
}

func TestPipelinedRequestsCoalesceUnderNagle(t *testing.T) {
	// Many small sends while data is in flight must coalesce into fewer,
	// larger flushes — the amortization mechanism of the paper.
	cfg := fastCfg()
	s, ca, _ := testNet(t, cfg)
	const sends, size = 64, 200
	for i := 0; i < sends; i++ {
		ca.Send(payload(size))
	}
	s.RunUntil(sim.Time(time.Millisecond))
	st := ca.Stats()
	if st.Sends != sends {
		t.Fatalf("sends = %d", st.Sends)
	}
	if st.Flushes >= sends/2 {
		t.Fatalf("flushes = %d for %d sends; Nagle did not coalesce", st.Flushes, sends)
	}
}

func TestNoDelayDoesNotCoalesceIdleSends(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, _ := testNet(t, cfg)
	for i := 0; i < 10; i++ {
		ca.Send(payload(100))
		s.RunFor(100 * time.Microsecond) // idle between sends
	}
	if got := ca.Stats().Flushes; got != 10 {
		t.Fatalf("flushes = %d, want 10 (one per send)", got)
	}
}

func TestAutoCorkHoldsWhileNICBusy(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.AutoCork = true
	cfg.CorkTimeout = 50 * time.Microsecond
	s := sim.New(1)
	a := NewStack(s, "a")
	b := NewStack(s, "b")
	a.TxCosts, a.RxCosts = cpumodel.Costs{}, cpumodel.Costs{}
	b.TxCosts, b.RxCosts = cpumodel.Costs{}, cpumodel.Costs{}
	// Slow link: the first packet occupies the NIC for a long time.
	link := netem.NewLink(s, "slow", netem.Config{BitsPerSec: 10_000_000, Propagation: time.Microsecond})
	ca, _ := Connect(a, b, link, cfg)
	ca.Send(payload(1000)) // ~850µs serialization with headers
	s.RunFor(time.Microsecond)
	ca.Send(payload(50)) // NODELAY, but autocork holds: NIC busy
	s.RunFor(10 * time.Microsecond)
	if ca.Unsent() != 50 {
		t.Fatalf("unsent = %d, want 50 held by autocork", ca.Unsent())
	}
	if ca.Stats().NagleHolds == 0 {
		t.Fatal("no hold recorded")
	}
}

func TestSegmentCountsMatchMSS(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, _ := testNet(t, cfg)
	n := 5*cfg.MSS + 7
	ca.Send(payload(n))
	s.RunUntil(sim.Time(time.Millisecond))
	if got := ca.Stats().Segments; got != 6 {
		t.Fatalf("segments = %d, want 6", got)
	}
}

func TestTSOMaxBytesLimitsFlushSize(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.TSOMaxBytes = 4 * cfg.MSS
	s, ca, _ := testNet(t, cfg)
	ca.Send(payload(16 * cfg.MSS))
	s.RunUntil(sim.Time(time.Millisecond))
	if got := ca.Stats().Flushes; got != 4 {
		t.Fatalf("flushes = %d, want 4 with TSO cap", got)
	}
}

func TestZeroLengthSendIsNoOp(t *testing.T) {
	s, ca, _ := testNet(t, fastCfg())
	ca.Send(nil)
	ca.Send([]byte{})
	s.RunUntil(sim.Time(100 * time.Microsecond))
	if ca.Stats().Sends != 0 || ca.Stats().Flushes != 0 {
		t.Fatalf("zero-length send had effects: %+v", ca.Stats())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	s := sim.New(1)
	a, b := NewStack(s, "a"), NewStack(s, "b")
	link := netem.NewLink(s, "l", netem.Config{})
	bad := DefaultConfig()
	bad.MSS = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	Connect(a, b, link, bad)
}

func TestMismatchedSimulatorsPanics(t *testing.T) {
	s1, s2 := sim.New(1), sim.New(2)
	a, b := NewStack(s1, "a"), NewStack(s2, "b")
	link := netem.NewLink(s1, "l", netem.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sims did not panic")
		}
	}()
	Connect(a, b, link, DefaultConfig())
}

func TestCloseCancelsTimers(t *testing.T) {
	cfg := fastCfg()
	cfg.CorkTimeout = 10 * time.Microsecond
	s, ca, _ := testNet(t, cfg)
	ca.Send(payload(16384)) // tail held, cork armed
	ca.Close()
	s.RunUntil(sim.Time(time.Millisecond))
	if ca.Stats().CorkTimeouts != 0 {
		t.Fatal("cork timer fired after Close")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	s, ca, cb := testNet(t, cfg)
	ca.Send(payload(10000))
	cb.Send(payload(20000))
	s.RunUntil(sim.Time(5 * time.Millisecond))
	if cb.Readable() != 10000 {
		t.Fatalf("server readable = %d", cb.Readable())
	}
	if ca.Readable() != 20000 {
		t.Fatalf("client readable = %d", ca.Readable())
	}
}

func TestPopLE(t *testing.T) {
	var q offsets
	pushSegEnds(&q, 0, 40, 10) // 10, 20, 30, 40
	if n := popLE(&q, 25); n != 2 || q.Len() != 2 || q.Live()[0] != 30 {
		t.Fatalf("popLE: n=%d q=%v", n, q.Live())
	}
	if n := popLE(&q, 5); n != 0 {
		t.Fatalf("popLE below min: n=%d", n)
	}
	if n := popLE(&q, 100); n != 2 || q.Len() != 0 {
		t.Fatalf("popLE all: n=%d q=%v", n, q.Live())
	}
	if n := popLE(&q, 1); n != 0 {
		t.Fatal("popLE on empty")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, Stats) {
		cfg := fastCfg()
		s, ca, cb := testNet(t, cfg)
		cb.OnReadable(func() {
			if cb.Readable() >= 100 {
				cb.Read(0)
				cb.Send(payload(10))
			}
		})
		for i := 0; i < 50; i++ {
			ca.Send(payload(100))
			s.RunFor(7 * time.Microsecond)
		}
		s.RunUntil(sim.Time(10 * time.Millisecond))
		return ca.Stats(), cb.Stats()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: %+v vs %+v / %+v vs %+v", a1, a2, b1, b2)
	}
}
