package realtcp

import (
	"runtime"
	"testing"
	"time"

	"e2ebatch/internal/resp"
)

// fleetTestOptions builds a small-but-real fleet config against addr: a
// dozen connections, both groups populated, ticks fast enough that even a
// sub-second window produces control-loop activity.
func fleetTestOptions(addr string, conns int) FleetOptions {
	return FleetOptions{
		Addr:        addr,
		Conns:       conns,
		Active:      conns / 2,
		Rate:        200,
		IdleEvery:   100 * time.Millisecond,
		Duration:    600 * time.Millisecond,
		Request:     resp.AppendCommand(nil, []byte("SET"), []byte("fleet"), []byte("v")),
		IdleRequest: resp.Command("PING"),
		Shards:      2,
		WheelTick:   time.Millisecond,
		Tick:        20 * time.Millisecond,
		SLO:         5 * time.Millisecond,
		Seed:        7,
		DialWorkers: 4,
	}
}

func TestFleetSmallRunBothGroups(t *testing.T) {
	addr, _ := startServer(t)
	f, err := NewFleet(fleetTestOptions(addr, 12))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DialErrors != 0 {
		t.Fatalf("dial errors = %d", rep.DialErrors)
	}
	if rep.Controlled.Conns != 6 || rep.Nagle.Conns != 6 {
		t.Fatalf("group split = %d/%d, want 6/6", rep.Controlled.Conns, rep.Nagle.Conns)
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Fatalf("sent=%d completed=%d, fleet moved no traffic", rep.Sent, rep.Completed)
	}
	if rep.Controlled.Count == 0 || rep.Nagle.Count == 0 {
		t.Fatalf("latency counts = %d/%d, a group recorded nothing",
			rep.Controlled.Count, rep.Nagle.Count)
	}
	if rep.Controlled.ControlTicks == 0 || rep.Nagle.ControlTicks == 0 {
		t.Fatalf("control ticks = %d/%d, a group never ticked",
			rep.Controlled.ControlTicks, rep.Nagle.ControlTicks)
	}
	if rep.Controlled.P50 <= 0 || rep.Controlled.P999 < rep.Controlled.P50 {
		t.Fatalf("controlled quantiles implausible: p50=%v p999=%v",
			rep.Controlled.P50, rep.Controlled.P999)
	}
	if rep.FinalRunQueue != 0 {
		t.Fatalf("final run queue = %d, work lost at stop", rep.FinalRunQueue)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shard stats = %d entries, want 2", len(rep.Shards))
	}
	var fired uint64
	for _, st := range rep.Shards {
		fired += st.Fired
	}
	if fired == 0 {
		t.Fatal("no wheel timers fired across the fleet")
	}
}

// TestFleetPacesAboveOneRequestPerTick: a connection asked for more
// requests than its wheel has ticks gets every one, several to a fire, and
// every one is answered.
func TestFleetPacesAboveOneRequestPerTick(t *testing.T) {
	addr, _ := startServer(t)
	o := fleetTestOptions(addr, 1)
	o.Active, o.Rate, o.Duration = 1, 5000, time.Second
	f, err := NewFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent < 4900 || rep.Completed != rep.Sent {
		t.Fatalf("sent %d, want at least 4900 of 5000 req/s × 1 s; completed %d, skipped %d",
			rep.Sent, rep.Completed, rep.Skipped)
	}
}

func TestFleetLiveCountersDuringRun(t *testing.T) {
	addr, _ := startServer(t)
	f, err := NewFleet(fleetTestOptions(addr, 8))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *FleetReport, 1)
	go func() {
		rep, err := f.Run()
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// Poll the live per-shard counters mid-run: they must be readable
	// concurrently and eventually show traffic.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var sent uint64
		for i := 0; i < f.Shards(); i++ {
			sent += f.ShardLive(i).Sent
		}
		if sent > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := <-done
	if rep == nil {
		t.Fatal("run failed")
	}
	var live uint64
	for i := 0; i < f.Shards(); i++ {
		live += f.ShardLive(i).Sent
	}
	if live != rep.Sent {
		t.Fatalf("live sent %d != report sent %d after teardown", live, rep.Sent)
	}
}

// TestNoGoroutineLeakAcrossFleetAndLoad is the regression test for the
// engine-port ticker leak: the old realtcp WallClock spawned a goroutine
// plus a runtime ticker per Endpoint.Start and leaked them until Stop.
// Every tick now lives on shard wheels, so a full fleet run plus a RunLoad
// must return the process to its baseline goroutine count.
func TestNoGoroutineLeakAcrossFleetAndLoad(t *testing.T) {
	addr, _ := startServer(t)

	// Warm up: one throwaway client so lazily-started runtime helpers
	// don't count against the baseline.
	c := dialOrFail(t, addr, DialOptions{})
	if err := roundTrip(c, resp.Command("PING")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	runtime.GC()
	base := runtime.NumGoroutine()

	f, err := NewFleet(fleetTestOptions(addr, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(cl, LoadOptions{
		Rate:     500,
		Duration: 150 * time.Millisecond,
		Request:  resp.Command("PING"),
		Toggler:  policyTestToggler(),
		Tick:     5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// Server-side conn handlers unwind asynchronously after client close;
	// give the count a bounded window to settle.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: base %d, now %d; leaked stacks:\n%s",
		base, runtime.NumGoroutine(), buf[:n])
}
