// Integration tests: the public API driven end to end against the full
// simulated stack — the cross-module contracts a downstream user relies on.
package e2ebatch_test

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/hints"
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
	tcpsim.NewSimServer(kv.NewEngine(store), sc, tcpsim.DefaultSimServerConfig())

	// Online: a passive engine endpoint estimating from the client's exact
	// snapshots plus the peer's wire states.
	online := engine.New(engine.Config{}, tcpsim.NewEnginePort(cc, sc))
	// Offline: exact snapshots from both sides.
	offline := func() (core.Queues, core.Queues) {
		ua, ur, ad := cc.Snapshots(tcpsim.UnitBytes)
		sua, sur, sad := sc.Snapshots(tcpsim.UnitBytes)
		return core.Queues{Unacked: ua, Unread: ur, AckDelay: ad},
			core.Queues{Unacked: sua, Unread: sur, AckDelay: sad}
	}

	gen := loadgen.New(s, cc, loadgen.DefaultConfig(25000, 50*time.Millisecond), loadgen.SetWorkload(16, 4096))
	end := gen.Start()
	warm := sim.Time(10 * time.Millisecond)
	var l0, r0 core.Queues
	s.At(warm, func() {
		online.Tick(qstate.Time(warm))
		l0, r0 = offline()
	})
	s.RunUntil(end)
	gen.FlushSends()
	onlineEst := online.Tick(qstate.Time(s.Now())).Estimate
	l1, r1 := offline()
	offlineEst := core.EstimateE2E(core.DelaysBetween(l0, l1), core.DelaysBetween(r0, r1))
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
	s := figure(t, "4a").Sweep(figures.Params{Calib: figures.DefaultCalib(), Dur: 200 * time.Millisecond, Seed: 3,
		Rates: []float64{5000, 15000, 45000, 60000}})
	for _, r := range s.Rows {
		mOff, mOn := r.Runs[0].Res.Latency.Mean(), r.Runs[1].Res.Latency.Mean()
		eOff, eOn := r.Runs[0].Est[tcpsim.UnitBytes].Latency, r.Runs[1].Est[tcpsim.UnitBytes].Latency
		margin := float64(mOff)/float64(mOn) > 1.3 || float64(mOn)/float64(mOff) > 1.3
		if !margin {
			continue
		}
		if (mOff < mOn) != (eOff < eOn) {
			t.Errorf("rate %v: measured ranks (%v vs %v) but estimates rank (%v vs %v)",
				r.Specs[0].Rate, mOff, mOn, eOff, eOn)
		}
	}
}

// TestPublicAPIWireInterop: a WireState built from live connection
// snapshots round-trips through the public codec and yields the same
// averages as the full-precision path (to wire-format resolution).
func TestPublicAPIWireInterop(t *testing.T) {
	var q qstate.State
	q.Init(0)
	q.Track(0, 5)
	q.Track(qstate.Time(3*time.Millisecond), -5)
	snap0 := qstate.Snapshot{}
	snap1 := q.Snapshot(qstate.Time(10 * time.Millisecond))

	exact := qstate.GetAvgs(snap0, snap1)
	w0, w1 := qstate.ToWire(snap0), qstate.ToWire(snap1)
	wire := qstate.WireAvgs(w0, w1)
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

	ws := qstate.WireState{Unacked: w1}
	buf := make([]byte, qstate.WireSize)
	if _, err := qstate.EncodeWire(buf, ws); err != nil {
		t.Fatal(err)
	}
	got, err := qstate.DecodeWire(buf)
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
	tcpsim.NewSimServer(kv.NewEngine(store), sc, tcpsim.DefaultSimServerConfig())

	lcfg := loadgen.DefaultConfig(15000, 100*time.Millisecond)
	lcfg.Warmup = 0
	gen := loadgen.New(s, cc, lcfg, loadgen.SetWorkload(16, 2048))
	tr := hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	gen.Hints = tr
	prev := tr.Snapshot()
	res := gen.Run()
	a := qstate.GetAvgs(prev, tr.Snapshot())
	if !a.Valid {
		t.Fatal("hint estimate invalid")
	}
	meas := float64(res.Latency.Mean())
	if h := float64(a.Latency); h < 0.75*meas || h > 1.3*meas {
		t.Fatalf("hints %v vs measured %v", a.Latency, res.Latency.Mean())
	}
}
