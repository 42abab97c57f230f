package loadgen

import (
	"testing"
	"time"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// rig builds client+server stacks with a kv server attached.
func rig(t testing.TB, nagle bool) (*sim.Sim, *Generator, func(cfg Config, mk RequestMaker) *Generator, *kv.SimServer) {
	t.Helper()
	s := sim.New(42)
	cs := tcpsim.NewStack(s, "client")
	ss := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	ccfg := tcpsim.DefaultConfig()
	ccfg.Nagle = nagle
	cc, sc := tcpsim.Connect(cs, ss, link, ccfg)
	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	srv := kv.NewSimServer(kv.NewEngine(store), sc, kv.DefaultSimServerConfig())
	mkGen := func(cfg Config, mk RequestMaker) *Generator {
		return New(s, cc, cfg, mk)
	}
	return s, nil, mkGen, srv
}

func TestLowLoadLatencySane(t *testing.T) {
	_, _, mkGen, srv := rig(t, false)
	cfg := DefaultConfig(5000, 100*time.Millisecond)
	g := mkGen(cfg, SetWorkload(16, 1024))
	res := g.Run()
	if res.Issued == 0 || res.Completed == 0 {
		t.Fatalf("nothing ran: %+v", res)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d at trivial load", res.Dropped)
	}
	mean := res.MeanLatency()
	if mean < 5*time.Microsecond || mean > 200*time.Microsecond {
		t.Fatalf("mean latency = %v, implausible at low load", mean)
	}
	if srv.Stats().Requests < res.Completed {
		t.Fatalf("server saw %d < client completed %d", srv.Stats().Requests, res.Completed)
	}
}

func TestOfferedRateMatchesIssuePattern(t *testing.T) {
	_, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(20000, 100*time.Millisecond)
	cfg.Arrival = Uniform
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	// Uniform at 20k over 100ms ⇒ ~2000 issued.
	if res.Issued < 1990 || res.Issued > 2010 {
		t.Fatalf("issued = %d, want ~2000", res.Issued)
	}
	if res.AchievedRate < 0.9*cfg.Rate || res.AchievedRate > 1.1*cfg.Rate {
		t.Fatalf("achieved = %v, want ~%v", res.AchievedRate, cfg.Rate)
	}
}

func TestPoissonArrivalsApproximateRate(t *testing.T) {
	_, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(30000, 200*time.Millisecond)
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	want := 30000 * 0.2
	if float64(res.Issued) < 0.9*want || float64(res.Issued) > 1.1*want {
		t.Fatalf("issued = %d, want ~%v", res.Issued, want)
	}
}

func TestWarmupDiscardsEarlySamples(t *testing.T) {
	_, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(10000, 100*time.Millisecond)
	cfg.Arrival = Uniform
	cfg.Warmup = 50 * time.Millisecond
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	// Only the second half should be sampled: ~500 of ~1000.
	if res.Latency.Count() > res.Completed*6/10 || res.Latency.Count() < res.Completed*4/10 {
		t.Fatalf("sampled %d of %d completed; warmup filter broken", res.Latency.Count(), res.Completed)
	}
}

func TestMixedWorkloadKinds(t *testing.T) {
	_, _, mkGen, srv := rig(t, false)
	// Preload keys so early GETs hit.
	for _, k := range makeKeys(16, 16) {
		srv.Engine().Store().Set(string(k), make([]byte, 2048), 0)
	}
	cfg := DefaultConfig(20000, 200*time.Millisecond)
	cfg.Warmup = 0
	g := mkGen(cfg, MixedWorkload(16, 2048, 950))
	res := g.Run()
	sets := res.ByKind[KindSet]
	gets := res.ByKind[KindGet]
	if sets == nil || gets == nil {
		t.Fatalf("kinds missing: %v", res.ByKind)
	}
	ratio := float64(gets.Count()) / float64(sets.Count()+gets.Count())
	if ratio < 0.03 || ratio > 0.08 {
		t.Fatalf("GET share = %v, want ~0.05", ratio)
	}
}

func TestHintsTrackerMatchesMeasuredLatency(t *testing.T) {
	s, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(10000, 200*time.Millisecond)
	cfg.Warmup = 0
	g := mkGen(cfg, SetWorkload(16, 1024))
	tr := hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	g.Hints = tr
	prev := tr.Snapshot() // t=0
	res := g.Run()
	a := qstate.GetAvgs(prev, tr.Snapshot())
	if !a.Valid {
		t.Fatal("hint estimate invalid")
	}
	if a.Departures != int64(res.Completed) {
		t.Fatalf("hint departures = %d, completed = %d", a.Departures, res.Completed)
	}
	// The hint latency is request→response including client read; the
	// measured mean is the same quantity. They must agree closely.
	// (Hints complete at parse time; measurement records at the same
	// instant — allow small slack for the unsampled warmup-free edges.)
	meas := float64(res.Latency.Mean())
	hint := float64(a.Latency)
	if hint < 0.8*meas || hint > 1.25*meas {
		t.Fatalf("hint latency %v vs measured %v", a.Latency, res.Latency.Mean())
	}
}

func TestOverloadDegradesGracefully(t *testing.T) {
	// Far beyond server capacity: the generator must survive, latency
	// must blow up, achieved rate must saturate below offered.
	_, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(300000, 50*time.Millisecond)
	cfg.Drain = 20 * time.Millisecond
	g := mkGen(cfg, SetWorkload(16, 4096))
	res := g.Run()
	if res.AchievedRate >= cfg.Rate*0.9 {
		t.Fatalf("achieved %v at offered %v: no saturation?", res.AchievedRate, cfg.Rate)
	}
	if res.Latency.Count() > 0 && res.Latency.Mean() < 100*time.Microsecond {
		t.Fatalf("overload mean latency = %v, implausibly low", res.Latency.Mean())
	}
}

func TestNagleVsNoDelayBothComplete(t *testing.T) {
	for _, nagle := range []bool{true, false} {
		_, _, mkGen, _ := rig(t, nagle)
		cfg := DefaultConfig(10000, 100*time.Millisecond)
		g := mkGen(cfg, SetWorkload(16, 16384))
		res := g.Run()
		if res.Dropped != 0 {
			t.Fatalf("nagle=%v: dropped %d", nagle, res.Dropped)
		}
		if res.Latency.Count() == 0 {
			t.Fatalf("nagle=%v: no samples", nagle)
		}
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	s := sim.New(1)
	for i, f := range []func(){
		func() { New(s, nil, Config{Rate: 0, Duration: time.Second}, PingWorkload()) },
		func() { New(s, nil, Config{Rate: 100, Duration: 0}, PingWorkload()) },
		func() { New(s, nil, Config{Rate: 100, Duration: time.Second}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() string {
		_, _, mkGen, _ := rig(t, true)
		cfg := DefaultConfig(25000, 100*time.Millisecond)
		g := mkGen(cfg, SetWorkload(16, 16384))
		return g.Run().String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}

func TestClosedLoopMaintainsConcurrency(t *testing.T) {
	_, _, mkGen, srv := rig(t, false)
	cfg := DefaultConfig(1, 100*time.Millisecond) // rate ignored
	cfg.Concurrency = 8
	cfg.Warmup = 0
	g := mkGen(cfg, SetWorkload(16, 1024))
	res := g.Run()
	if res.Dropped != 0 {
		t.Fatalf("dropped %d", res.Dropped)
	}
	if res.Completed < 100 {
		t.Fatalf("completed = %d, closed loop barely ran", res.Completed)
	}
	if srv.Stats().Requests < res.Completed {
		t.Fatalf("server saw fewer requests than completed")
	}
	// Self-clocked: achieved rate is whatever the pipeline sustains; it
	// must be substantial with 8 outstanding 1 KiB SETs.
	if res.AchievedRate < 10000 {
		t.Fatalf("achieved = %v, implausibly low for depth-8 closed loop", res.AchievedRate)
	}
}

func TestClosedLoopDepthOneIsPingPong(t *testing.T) {
	_, _, mkGen, _ := rig(t, true) // Nagle on
	cfg := DefaultConfig(1, 50*time.Millisecond)
	cfg.Concurrency = 1
	cfg.Warmup = 0
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	if res.Dropped != 0 {
		t.Fatalf("dropped %d", res.Dropped)
	}
	// With exactly one outstanding request there is never unACKed data
	// at send time, so Nagle cannot hold anything: latency must match
	// the unloaded round trip (tens of µs), not a delack timeout.
	if res.Latency.Mean() > 100*time.Microsecond {
		t.Fatalf("depth-1 closed-loop mean = %v; Nagle held despite empty pipe", res.Latency.Mean())
	}
	if res.Latency.Max() > 2*time.Millisecond {
		t.Fatalf("depth-1 max = %v", res.Latency.Max())
	}
}

func TestClosedLoopStopsAtDuration(t *testing.T) {
	s, _, mkGen, _ := rig(t, false)
	_ = s
	cfg := DefaultConfig(1, 20*time.Millisecond)
	cfg.Concurrency = 4
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	if res.Dropped != 0 {
		t.Fatalf("dropped %d (window not drained)", res.Dropped)
	}
	if res.Issued < res.Completed {
		t.Fatalf("issued %d < completed %d", res.Issued, res.Completed)
	}
}

func TestConfigValidationClosedLoop(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate and zero concurrency accepted")
		}
	}()
	New(s, nil, Config{Duration: time.Second}, PingWorkload())
}

func TestWindowSeries(t *testing.T) {
	_, _, mkGen, _ := rig(t, false)
	cfg := DefaultConfig(10000, 100*time.Millisecond)
	cfg.Arrival = Uniform
	cfg.WindowEvery = 10 * time.Millisecond
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	if len(res.Windows) < 9 || len(res.Windows) > 12 {
		t.Fatalf("windows = %d, want ~10", len(res.Windows))
	}
	var sum uint64
	for i, w := range res.Windows {
		if w.Start != time.Duration(i)*cfg.WindowEvery {
			t.Fatalf("window %d start = %v", i, w.Start)
		}
		if w.Count > 0 && (w.Mean() <= 0 || w.Mean() > time.Millisecond) {
			t.Fatalf("window %d mean = %v", i, w.Mean())
		}
		sum += w.Count
	}
	if sum != res.Completed {
		t.Fatalf("window counts %d != completed %d", sum, res.Completed)
	}
	if (Window{}).Mean() != 0 {
		t.Fatal("empty window mean should be 0")
	}
}
