// Integration tests: the public API driven end to end against the full
// simulated stack — the cross-module contracts a downstream user relies on.
package e2ebatch_test

import (
	"testing"
	"time"

	"e2ebatch"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// TestOnlineEstimateMatchesOfflineAnalysis: the online path (wire-format
// exchanges received from the peer) and the offline path (exact snapshots
// from both endpoints) must produce closely matching estimates over the
// same run — the equivalence between the paper's future TCP-option design
// and its ethtool-offline prototype.
func TestOnlineEstimateMatchesOfflineAnalysis(t *testing.T) {
	s := sim.New(21)
	cs := tcpsim.NewStack(s, "client")
	ss := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	cfg := tcpsim.DefaultConfig()
	cfg.Nagle = false
	cc, sc := tcpsim.Connect(cs, ss, link, cfg)
	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	kv.NewSimServer(kv.NewEngine(store), sc, kv.DefaultSimServerConfig())

	// Online estimator: local exact snapshots + the peer's wire states.
	var online e2ebatch.Estimator
	prime := func() e2ebatch.Sample {
		ua, ur, ad := cc.Snapshots(tcpsim.UnitBytes)
		smp := e2ebatch.Sample{Local: e2ebatch.Queues{Unacked: ua, Unread: ur, AckDelay: ad}}
		if ws, _, ok := cc.PeerWireState(); ok {
			smp.Remote, smp.RemoteOK = ws, true
		}
		return smp
	}
	// Offline: exact snapshots from both sides.
	offline := func() (e2ebatch.Queues, e2ebatch.Queues) {
		ua, ur, ad := cc.Snapshots(tcpsim.UnitBytes)
		sua, sur, sad := sc.Snapshots(tcpsim.UnitBytes)
		return e2ebatch.Queues{Unacked: ua, Unread: ur, AckDelay: ad},
			e2ebatch.Queues{Unacked: sua, Unread: sur, AckDelay: sad}
	}

	gen := loadgen.New(s, cc, loadgen.DefaultConfig(25000, 50*time.Millisecond), loadgen.SetWorkload(16, 4096))
	end := gen.Start()
	warm := sim.Time(10 * time.Millisecond)
	var l0, r0 e2ebatch.Queues
	s.At(warm, func() {
		online.Update(prime())
		l0, r0 = offline()
	})
	s.RunUntil(end)
	gen.FlushSends()
	onlineEst := online.Update(prime())
	l1, r1 := offline()
	offlineEst := e2ebatch.EstimateE2E(e2ebatch.DelaysBetween(l0, l1), e2ebatch.DelaysBetween(r0, r1))
	gen.Finalize()

	if !onlineEst.Valid || !offlineEst.Valid {
		t.Fatalf("validity: online=%v offline=%v", onlineEst.Valid, offlineEst.Valid)
	}
	diff := onlineEst.Latency - offlineEst.Latency
	if diff < 0 {
		diff = -diff
	}
	// The online view loses only the µs quantization of the wire format
	// and the staleness of the last exchange.
	if float64(diff) > 0.15*float64(offlineEst.Latency)+float64(20*time.Microsecond) {
		t.Fatalf("online %v vs offline %v", onlineEst.Latency, offlineEst.Latency)
	}
}

// TestEstimateOrderingPredictsBatchingWinner: across the sweep, whenever
// the measured latencies of the two modes differ by a clear margin, the
// byte estimates must rank them identically — the property that makes the
// estimates usable for toggling decisions even where their absolute values
// drift.
func TestEstimateOrderingPredictsBatchingWinner(t *testing.T) {
	cal := figures.DefaultCalib()
	f := figures.Fig4a(cal, []float64{5000, 15000, 45000, 60000}, 200*time.Millisecond, 3)
	for _, p := range f.Points {
		mOff, mOn := p.Off.Measured, p.On.Measured
		eOff, eOn := p.Off.Est[tcpsim.UnitBytes].Latency, p.On.Est[tcpsim.UnitBytes].Latency
		margin := float64(mOff)/float64(mOn) > 1.3 || float64(mOn)/float64(mOff) > 1.3
		if !margin {
			continue
		}
		if (mOff < mOn) != (eOff < eOn) {
			t.Errorf("rate %v: measured ranks (%v vs %v) but estimates rank (%v vs %v)",
				p.Rate, mOff, mOn, eOff, eOn)
		}
	}
}

// TestPublicAPIWireInterop: a WireState built from live connection
// snapshots round-trips through the public codec and yields the same
// averages as the full-precision path (to wire-format resolution).
func TestPublicAPIWireInterop(t *testing.T) {
	var q e2ebatch.QueueState
	q.Init(0)
	q.Track(0, 5)
	q.Track(e2ebatch.Time(3*time.Millisecond), -5)
	snap0 := e2ebatch.Snapshot{}
	snap1 := q.Snapshot(e2ebatch.Time(10 * time.Millisecond))

	exact := e2ebatch.GetAvgs(snap0, snap1)
	w0, w1 := e2ebatch.ToWireQueue(snap0), e2ebatch.ToWireQueue(snap1)
	wire := e2ebatch.WireAvgs(w0, w1)
	if !exact.Valid || !wire.Valid {
		t.Fatal("validity")
	}
	diff := exact.Latency - wire.Latency
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*time.Microsecond {
		t.Fatalf("wire %v vs exact %v", wire.Latency, exact.Latency)
	}

	ws := e2ebatch.WireState{Unacked: w1}
	buf := make([]byte, e2ebatch.WireSize)
	if _, err := e2ebatch.EncodeWire(buf, ws); err != nil {
		t.Fatal(err)
	}
	got, err := e2ebatch.DecodeWire(buf)
	if err != nil || got != ws {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}

// TestHintsEqualMeasuredOnPublicAPI wires the hint tracker through the full
// stack via the public facade and checks it reproduces the load generator's
// own measurement.
func TestHintsEqualMeasuredOnPublicAPI(t *testing.T) {
	s := sim.New(5)
	cs := tcpsim.NewStack(s, "client")
	ss := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	cfg := tcpsim.DefaultConfig()
	cc, sc := tcpsim.Connect(cs, ss, link, cfg)
	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	kv.NewSimServer(kv.NewEngine(store), sc, kv.DefaultSimServerConfig())

	lcfg := loadgen.DefaultConfig(15000, 100*time.Millisecond)
	lcfg.Warmup = 0
	gen := loadgen.New(s, cc, lcfg, loadgen.SetWorkload(16, 2048))
	tr := e2ebatch.NewHintTracker(func() e2ebatch.Time { return qstate.Time(s.Now()) })
	gen.Hints = tr
	prev := tr.Snapshot()
	res := gen.Run()
	a := e2ebatch.GetAvgs(prev, tr.Snapshot())
	if !a.Valid {
		t.Fatal("hint estimate invalid")
	}
	meas := float64(res.Latency.Mean())
	if h := float64(a.Latency); h < 0.75*meas || h > 1.3*meas {
		t.Fatalf("hints %v vs measured %v", a.Latency, res.Latency.Mean())
	}
}
