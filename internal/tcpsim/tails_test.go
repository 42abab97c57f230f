package tcpsim

import (
	"testing"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
)

// pingPong drives n request/response exchanges of size bytes each way,
// spaced period apart, with both ends reading eagerly.
func pingPong(s *sim.Sim, ca, cb *Conn, n, size int, period time.Duration) {
	cb.OnReadable(func() {
		if got := cb.Read(0); got != nil {
			cb.Send(payload(size))
		}
	})
	ca.OnReadable(func() { ca.Read(0) })
	for i := 0; i < n; i++ {
		s.At(sim.Time(i)*sim.Time(period), func() { ca.Send(payload(size)) })
	}
	s.RunUntil(sim.Time(n)*sim.Time(period) + sim.Time(10*time.Millisecond))
}

// TestExchangeTailsDeliversPeerHistograms: with ExchangeTails on both ends,
// each endpoint ends up holding the peer's cumulative delay histograms, and
// the local unacked histogram accounts for exactly the bytes that were
// acknowledged — the FIFO attribution loses and invents nothing.
func TestExchangeTailsDeliversPeerHistograms(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle = false
	cfg.ExchangeTails = true
	s, ca, cb := testNet(t, cfg)
	pingPong(s, ca, cb, 200, 512, 20*time.Microsecond)

	for _, c := range []*Conn{ca, cb} {
		lt := c.LocalTails(UnitBytes)
		sent := int64(c.Stats().BytesSent)
		acked := sent - c.InFlight()
		if got := int64(lt.Unacked.Count()); got != acked {
			t.Fatalf("%s: unacked histogram holds %d byte departures, want %d acked", c.Name(), got, acked)
		}
		pt, ok := c.PeerTails()
		if !ok {
			t.Fatalf("%s: no peer tails after %d exchanges", c.Name(), c.Stats().StatesExchanged)
		}
		if pt.Unacked.Count() == 0 || pt.Unread.Count() == 0 {
			t.Fatalf("%s: peer tails empty: unacked=%d unread=%d", c.Name(), pt.Unacked.Count(), pt.Unread.Count())
		}
		// Every unacked byte spent at least the one-way propagation plus the
		// ack's return in the queue: nothing may sit below the 2µs bucket.
		for i := 0; i < qstate.DelayBucket(2*time.Microsecond); i++ {
			if lt.Unacked.Counts[i] != 0 {
				t.Fatalf("%s: %d unacked bytes report residency below 2µs (bucket %d)", c.Name(), lt.Unacked.Counts[i], i)
			}
		}
	}
}

// TestExchangeTailsOffStaysV1: the default config is a v1 peer — histograms
// are still tracked locally (passively) but never ride the exchange, so the
// other end sees none.
func TestExchangeTailsOffStaysV1(t *testing.T) {
	s, ca, cb := testNet(t, fastCfg())
	pingPong(s, ca, cb, 50, 512, 20*time.Microsecond)
	if ca.Stats().StatesExchanged == 0 {
		t.Fatal("no exchanges at all — test drives nothing")
	}
	if _, ok := ca.PeerTails(); ok {
		t.Fatal("v1 peer delivered tails")
	}
	if _, ok := cb.PeerTails(); ok {
		t.Fatal("v1 peer delivered tails")
	}
	lt := ca.LocalTails(UnitBytes)
	if lt.Unacked.Count() == 0 {
		t.Fatal("local delay tracking must stay on even without the exchange")
	}
}

// TestEnginePortComposesTailInSim: the full loop — simulated traffic, v2
// exchanges, EnginePort samples, core.Estimator — yields a valid composed
// tail with ordered quantiles; flipping only ExchangeTails off makes the
// tail abstain on the same workload while the mean estimate survives.
func TestEnginePortComposesTailInSim(t *testing.T) {
	run := func(tails bool) engine.TickResult {
		cfg := fastCfg()
		cfg.Nagle = false
		cfg.ExchangeTails = tails
		s, ca, cb := testNet(t, cfg)
		ep := engine.New(engine.Config{}, NewEnginePort(ca, cb, UnitBytes))
		var last engine.TickResult
		tick := sim.Time(500 * time.Microsecond)
		for i := 1; i <= 20; i++ {
			s.At(sim.Time(i)*tick, func() { last = ep.Tick(qstate.Time(s.Now())) })
		}
		pingPong(s, ca, cb, 400, 512, 25*time.Microsecond)
		return last
	}

	r := run(true)
	if !r.Estimate.Valid {
		t.Fatalf("mean estimate invalid: %+v", r.Estimate)
	}
	tl := r.Estimate.Tail
	if !tl.Valid {
		t.Fatalf("tail abstained with v2 exchanges on: %+v", r.Estimate)
	}
	if !(tl.P50 <= tl.P90 && tl.P90 <= tl.P99 && tl.P99 <= tl.P999) {
		t.Fatalf("tail quantiles unordered: %+v", tl)
	}
	if tl.P50 <= 0 {
		t.Fatalf("composed p50 = %v, want positive residency", tl.P50)
	}
	// The composed p99 can never sit below the one-way propagation delay the
	// unacked queue alone imposes.
	if tl.P99 < time.Microsecond {
		t.Fatalf("composed p99 = %v, below the link propagation", tl.P99)
	}

	r = run(false)
	if !r.Estimate.Valid {
		t.Fatalf("v1 mean estimate invalid: %+v", r.Estimate)
	}
	if r.Estimate.Tail.Valid {
		t.Fatalf("tail composed against a v1 peer: %+v", r.Estimate.Tail)
	}
}

// TestDelayedExchangeOutlivesItsSegment: a v2 exchange the fault hook defers
// is applied long after the segment that carried it was recycled and reused
// for later exchanges, so it must have travelled on in a copy: what lands is
// the sender's histograms as of the deferred segment, not of whichever
// exchange the pooled segment carried last.
func TestDelayedExchangeOutlivesItsSegment(t *testing.T) {
	cfg := fastCfg()
	cfg.Nagle, cfg.ExchangeTails = false, true
	s, ca, cb := testNet(t, cfg)
	var sentTails []qstate.WireTails // ca's histograms at each exchange cb saw
	cb.SetStateFault(func(qstate.WireState) StateFaultAction {
		sentTails = append(sentTails, ca.LocalTails(UnitBytes))
		if len(sentTails) == 20 {
			return StateFaultAction{Delay: 5 * time.Millisecond}
		}
		return StateFaultAction{}
	})
	pingPong(s, ca, cb, 200, 512, 20*time.Microsecond) // runs 10 ms past the last send
	if cb.Stats().StatesDelayed != 1 || len(sentTails) < 100 {
		t.Fatalf("delayed %d of %d exchanges, want 1 of 100+", cb.Stats().StatesDelayed, len(sentTails))
	}
	got, ok := cb.PeerTails()
	if !ok || got.Unacked.Count() == 0 {
		t.Fatal("no peer tails after the run")
	}
	// The deferred exchange landed last (5 ms after the 20th, past the 4 ms
	// of sending), carrying the 20th exchange's counters.
	if want := sentTails[19]; got != want {
		t.Fatalf("deferred exchange applied %d unacked departures, want the %d it was sent with (latest %d)",
			got.Unacked.Count(), want.Unacked.Count(), sentTails[len(sentTails)-1].Unacked.Count())
	}
}
