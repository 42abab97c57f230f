package e2ebatch_test

// Scale smoke for the shared-nothing shard engine (tier-1 via `make test`;
// alone: `go test -run TestScaleSmoke .`): hold a 2000-connection fleet
// from this process against an in-process kvserver, every connection's
// control tick, pacing and reconnect scheduling multiplexed onto shard
// timer wheels, then
// require the run to be *clean* — no dial failures, no lost run-queue
// work, per-shard rollups consistent with the final report, both policy
// groups measured, and the goroutine count back at baseline afterwards
// (the per-connection-goroutine regression guard at fleet scale).

import (
	"net"
	"runtime"
	"testing"
	"time"

	"e2ebatch/internal/kv"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
)

func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("holds thousands of sockets; skipped in short mode")
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	store := kv.NewStore(func() time.Duration { return time.Duration(time.Now().UnixNano()) })
	srv := realtcp.NewServer(kv.NewEngine(store))
	srv.BufBytes = 8 << 10 // 2000 server-side conns want small buffers
	go srv.Serve(l)
	defer srv.Close()

	runtime.GC()
	base := runtime.NumGoroutine()

	const conns = 2000
	f, err := realtcp.NewFleet(realtcp.FleetOptions{
		Addr:      l.Addr().String(),
		Conns:     conns,
		Active:    100,
		Rate:      50,
		IdleEvery: 500 * time.Millisecond,
		Duration:  2 * time.Second,
		Request:   resp.AppendCommand(nil, []byte("SET"), []byte("scale"), []byte("v")),
		Tick:      100 * time.Millisecond,
		Toggle:    true,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rep.DialErrors != 0 {
		t.Errorf("dial errors = %d, want 0", rep.DialErrors)
	}
	if rep.Controlled.Conns+rep.Nagle.Conns != conns {
		t.Errorf("accounted conns = %d, want %d", rep.Controlled.Conns+rep.Nagle.Conns, conns)
	}
	if rep.FinalRunQueue != 0 {
		t.Errorf("final run queue = %d, want 0 (queued work lost at stop)", rep.FinalRunQueue)
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Errorf("sent=%d completed=%d, fleet moved no traffic", rep.Sent, rep.Completed)
	}
	if rep.Controlled.Count == 0 || rep.Nagle.Count == 0 {
		t.Errorf("latency counts %d/%d: a policy group measured nothing",
			rep.Controlled.Count, rep.Nagle.Count)
	}
	// Every live connection must have run its control loop: 2 s of 100 ms
	// ticks is ~20 per connection; require at least one apiece on average.
	ticks := rep.Controlled.ControlTicks + rep.Nagle.ControlTicks
	if ticks < conns {
		t.Errorf("control ticks = %d across %d conns: wheels did not reach the fleet", ticks, conns)
	}

	// The live per-shard rollups and the report must agree after teardown —
	// the same lock-free-sum consistency the obs sharded counters promise.
	var liveSent, liveCompleted, fired uint64
	for i := 0; i < f.Shards(); i++ {
		s := f.ShardLive(i)
		liveSent += s.Sent
		liveCompleted += s.Completed
		fired += s.Wheel.Fired
	}
	if liveSent != rep.Sent || liveCompleted != rep.Completed {
		t.Errorf("live rollup sent/completed = %d/%d, report = %d/%d",
			liveSent, liveCompleted, rep.Sent, rep.Completed)
	}
	if fired == 0 {
		t.Error("no wheel timers fired")
	}

	// Post-teardown, the process must shed every fleet goroutine (client
	// read loops) and the server its per-conn handlers.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: base %d, now %d after fleet teardown", base, runtime.NumGoroutine())
}
