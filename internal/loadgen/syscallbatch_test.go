package loadgen

import (
	"bytes"
	"testing"
	"time"

	"e2ebatch/internal/hints"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

func TestSyscallBatchReducesSends(t *testing.T) {
	s := sim.New(42)
	_, _, mkGen, _ := rigOn(t, s)
	cfg := DefaultConfig(20000, 100*time.Millisecond)
	cfg.Arrival = Uniform
	cfg.SyscallBatch = 4
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	if res.Dropped != 0 {
		t.Fatalf("dropped %d", res.Dropped)
	}
	sends := g.conn.Stats().Sends
	// ~2000 requests in ~500 sends (plus the final partial flush).
	if sends > res.Issued/3 {
		t.Fatalf("sends = %d for %d requests; syscall batching inactive", sends, res.Issued)
	}
}

func TestSyscallBatchAddsUserspaceWait(t *testing.T) {
	s := sim.New(42)
	_, _, mkGen, _ := rigOn(t, s)
	base := DefaultConfig(10000, 100*time.Millisecond)
	base.Arrival = Uniform
	base.Warmup = 0
	plain := mkGen(base, PingWorkload()).Run()

	s2 := sim.New(42)
	_, _, mkGen2, _ := rigOn(t, s2)
	batched := base
	batched.SyscallBatch = 8
	bres := mkGen2(batched, PingWorkload()).Run()

	// With 100µs inter-arrivals and batches of 8, the first request of
	// each batch waits ~700µs in userspace: mean latency must be much
	// higher than the per-request-send baseline.
	if bres.Latency.Mean() < 3*plain.Latency.Mean() {
		t.Fatalf("batched mean %v vs plain %v: expected large userspace wait", bres.Latency.Mean(), plain.Latency.Mean())
	}
}

func TestSyscallBatchFinalPartialFlush(t *testing.T) {
	s := sim.New(1)
	_, _, mkGen, _ := rigOn(t, s)
	cfg := DefaultConfig(1000, 10*time.Millisecond) // ~10 requests
	cfg.Arrival = Uniform
	cfg.SyscallBatch = 64 // never fills during the run
	cfg.Warmup = 0
	g := mkGen(cfg, PingWorkload())
	res := g.Run()
	if res.Issued == 0 {
		t.Fatal("nothing issued")
	}
	if res.Dropped != 0 {
		t.Fatalf("final partial batch never flushed: dropped %d of %d", res.Dropped, res.Issued)
	}
}

func TestSyscallBatchHintsStillExact(t *testing.T) {
	s := sim.New(42)
	_, _, mkGen, _ := rigOn(t, s)
	cfg := DefaultConfig(20000, 100*time.Millisecond)
	cfg.Warmup = 0
	cfg.SyscallBatch = 4
	g := mkGen(cfg, PingWorkload())
	tr := hints.NewTracker(func() qstate.Time { return qstate.Time(s.Now()) })
	g.Hints = tr
	prev := tr.Snapshot()
	res := g.Run()
	a := qstate.GetAvgs(prev, tr.Snapshot())
	if !a.Valid || a.Departures != int64(res.Completed) {
		t.Fatalf("hints: %+v vs completed %d", a, res.Completed)
	}
	meas := float64(res.Latency.Mean())
	if h := float64(a.Latency); h < 0.8*meas || h > 1.25*meas {
		t.Fatalf("hint latency %v vs measured %v: hints must include the userspace wait", a.Latency, res.Latency.Mean())
	}
}

// rigOn builds a client/server rig on a caller-provided simulator so tests
// can share seeds across configurations.
func rigOn(t testing.TB, s *sim.Sim) (*sim.Sim, *Generator, func(cfg Config, mk RequestMaker) *Generator, struct{}) {
	t.Helper()
	cs := tcpsim.NewStack(s, "client")
	ss := tcpsim.NewStack(s, "server")
	link := netem.NewLink(s, "lnk", netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond})
	ccfg := tcpsim.DefaultConfig()
	ccfg.Nagle = false
	cc, sc := tcpsim.Connect(cs, ss, link, ccfg)
	store := kv.NewStore(func() time.Duration { return s.Now().Duration() })
	tcpsim.NewSimServer(kv.NewEngine(store), sc, tcpsim.DefaultSimServerConfig())
	mkGen := func(cfg Config, mk RequestMaker) *Generator {
		return New(s, cc, cfg, mk)
	}
	return s, nil, mkGen, struct{}{}
}

// TestSendAliasingContract: tcpsim.Conn.Send keeps its argument by reference
// until the peer reads it, so neither the generator (the makers' shared wire
// forms, the syscall-batch buffer) nor tcpsim.SimServer (its replies) may touch a
// slice after sending it. A violation would change bytes between the
// sender's digest, taken at Send, and the receiver's, taken at Read.
func TestSendAliasingContract(t *testing.T) {
	for _, batch := range []int{1, 4} {
		s := sim.New(7)
		_, _, mkGen, _ := rigOn(t, s)
		cfg := DefaultConfig(40000, 50*time.Millisecond)
		cfg.SyscallBatch = batch
		mk := MixedWorkload(16, 2048, 500)
		g := mkGen(cfg, mk)
		res := g.Run()
		if res.Completed == 0 || res.Dropped != 0 {
			t.Fatalf("batch %d: completed %d, dropped %d", batch, res.Completed, res.Dropped)
		}
		c, srv := g.conn.Stats(), g.conn.Peer().Stats()
		if c.SentDigest != srv.ReadDigest || srv.SentDigest != c.ReadDigest {
			t.Fatalf("batch %d: a slice changed between Send and the peer's Read: client %x/%x server %x/%x",
				batch, c.SentDigest, c.ReadDigest, srv.SentDigest, srv.ReadDigest)
		}
		fresh := MixedWorkload(16, 2048, 500)
		for i := uint64(0); i < 1000; i++ {
			got, _ := mk(i)
			want, _ := fresh(i)
			if !bytes.Equal(got, want) {
				t.Fatalf("batch %d: the maker's wire form for request %d was modified by the run", batch, i)
			}
		}
	}
}
