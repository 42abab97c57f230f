package realtcp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/obs/span"
	"e2ebatch/internal/qstate"
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
		Tick:        20 * time.Millisecond,
		Toggle:      true,
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
// requests than its wheel has ticks gets exactly the ones its schedule
// holds, several to a fire, and every one is answered.
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
	if rep.Sent != 5000 || rep.Completed != rep.Sent {
		t.Fatalf("sent %d, want the 5000 of 5000 req/s × 1 s; completed %d, skipped %d",
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
// Every tick now lives on shard wheels, so a full fleet run plus a toggling
// fleet of one must return the process to its baseline goroutine count.
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

	one := fleetOfOne(addr, 500, 150*time.Millisecond, 5*time.Millisecond)
	one.Toggle = true
	for _, o := range []FleetOptions{fleetTestOptions(addr, 6), one} {
		f, err := NewFleet(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
	}

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

// fleetOfOne is kvload's default shape: one active, controlled connection.
func fleetOfOne(addr string, rate float64, dur, tick time.Duration) FleetOptions {
	return FleetOptions{Addr: addr, Conns: 1, Rate: rate, Duration: dur, Request: resp.Command("PING"),
		Tick: tick, SLO: 5 * time.Millisecond}
}

func TestFleetOfOneBasic(t *testing.T) {
	addr, _ := startServer(t)
	var completions atomic.Int64
	o := fleetOfOne(addr, 2000, 500*time.Millisecond, 20*time.Millisecond)
	o.OnComplete = func(conn, _ int, _ uint64, n int, _, _, _, _ int64) {
		if conn == 0 {
			completions.Add(int64(n))
		}
	}
	f, err := NewFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 1000 || rep.Skipped != 0 || rep.Controlled.Conns != 1 || rep.Nagle.Conns != 0 {
		t.Fatalf("sent %d, skipped %d, groups %d/%d; want the 1000 the schedule holds on one controlled connection",
			rep.Sent, rep.Skipped, rep.Controlled.Conns, rep.Nagle.Conns)
	}
	if n := completions.Load(); uint64(n) != rep.Sent || rep.Completed != rep.Sent || rep.Writes == 0 {
		t.Fatalf("%d completions (%d counted) in %d writes for %d requests sent", n, rep.Completed, rep.Writes, rep.Sent)
	}
	if rep.Controlled.ValidEstimates == 0 || rep.Toggler.Decisions != 0 {
		t.Fatalf("%d estimates, %d toggler decisions; want estimates from a passive endpoint",
			rep.Controlled.ValidEstimates, rep.Toggler.Decisions)
	}
}

func TestFleetOfOneWithToggler(t *testing.T) {
	addr, _ := startServer(t)
	o := fleetOfOne(addr, 2000, 400*time.Millisecond, 10*time.Millisecond)
	o.Toggle = true
	f, err := NewFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Toggler.Decisions == 0 || f.TogglerStats() != rep.Toggler {
		t.Fatalf("toggler stats %+v, connection 0's %+v; want the one toggler consulted", rep.Toggler, f.TogglerStats())
	}
}

func TestFleetOfOneValidation(t *testing.T) {
	addr, _ := startServer(t)
	ok := fleetOfOne(addr, 100, time.Second, 0)
	for _, edit := range []func(*FleetOptions){
		func(o *FleetOptions) { o.Addr = "" },
		func(o *FleetOptions) { o.Conns = 0 },
		func(o *FleetOptions) { o.Duration = 0 },
		func(o *FleetOptions) { o.Request = nil },
	} {
		o := ok
		edit(&o)
		if _, err := NewFleet(o); err == nil {
			t.Errorf("opts %+v accepted", o)
		}
	}
	if _, err := NewFleet(ok); err != nil {
		t.Fatal(err)
	}
}

// TestFleetOfOneBatchesWrites: the pacer hands over every request of its
// schedule, a wheel tick's worth to each write.
func TestFleetOfOneBatchesWrites(t *testing.T) {
	const rate, dur = 20000, 200 * time.Millisecond
	addr, _ := startServer(t)
	f, err := NewFleet(fleetOfOne(addr, rate, dur, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(rate * dur.Seconds()); rep.Sent != want {
		t.Fatalf("sent %d, want the %d the schedule holds (lag mean %v max %v)", rep.Sent, want, rep.LagMean, rep.LagMax)
	}
	if rep.Writes == 0 || rep.Writes >= rep.Sent/2 {
		t.Fatalf("%d writes for %d requests; want under half as many writes as requests", rep.Writes, rep.Sent)
	}
	if rep.LagMean < 0 || rep.LagMax < rep.LagMean || rep.LagMax > dur {
		t.Fatalf("lag mean %v max %v", rep.LagMean, rep.LagMax)
	}
}

// tickCounter is an engine.Observer that counts the ticks it sees.
type tickCounter struct{ ticks int }

func (o *tickCounter) ObserveTick(qstate.Time, engine.TickResult) { o.ticks++ }

// runTracedFleet runs conns active connections at 1 000 req/s for 400 ms
// with Spans set to cfg (every request sampled, a ring large enough to keep
// them all). It requires the ring to hold one span per completion and
// every connection to have stamped spans, and returns the fleet, its
// report and each connection's stamped-span count.
func runTracedFleet(t *testing.T, conns int, cfg *span.Config, ob engine.Observer) (f *Fleet, rep *FleetReport, stamped []uint64) {
	t.Helper()
	addr, _ := startServer(t)
	o := fleetTestOptions(addr, conns)
	o.Active, o.Rate, o.Duration, o.Tick = conns, 1000, 400*time.Millisecond, 5*time.Millisecond
	o.Observer, o.Spans = ob, cfg
	f, err := NewFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = f.Run(); err != nil {
		t.Fatal(err)
	}
	spans := make([]uint64, conns)
	stamped = make([]uint64, conns)
	for _, sp := range cfg.Ring.Last(cfg.Ring.Cap()) {
		spans[sp.Conn]++
		if sp.EstValid {
			stamped[sp.Conn]++
		}
	}
	var total uint64
	for c := range spans {
		total += spans[c]
		if stamped[c] == 0 {
			t.Fatalf("connection %d: none of its %d spans carries an estimate stamp", c, spans[c])
		}
	}
	if total != rep.Completed {
		t.Fatalf("ring holds %d spans, the fleet completed %d requests", total, rep.Completed)
	}
	return f, rep, stamped
}

// TestFleetAuditsEveryConnection: every connection stamps its spans with
// its own estimate and the one auditor scores them all, while the
// Observer still sees connection 0's ticks alone.
func TestFleetAuditsEveryConnection(t *testing.T) {
	ob := &tickCounter{}
	cfg := &span.Config{SampleEvery: 1, Ring: span.NewRing(2, 4096), Audit: span.NewAuditor(span.AuditConfig{})}
	f, rep, stamped := runTracedFleet(t, 3, cfg, ob)
	var sum uint64
	for _, n := range stamped {
		sum += n
	}
	if st := cfg.Audit.AuditStats(); st.Audited != sum || rep.Audit != st {
		t.Fatalf("auditor scored %d spans (report %+v); the connections stamped %d", st.Audited, rep.Audit, sum)
	}
	zero := addEngineStats(f.conns[0].prior, f.conns[0].ep.Stats()).TotalTicks
	fleet := rep.Controlled.ControlTicks + rep.Nagle.ControlTicks
	if ob.ticks == 0 || ob.ticks != zero || uint64(zero) >= fleet {
		t.Fatalf("observer saw %d ticks, connection 0 ran %d, the fleet %d", ob.ticks, zero, fleet)
	}
}

// TestFleetSpansWithoutAuditor: Spans with a ring and no auditor leaves the
// engines without an audit source (a nil *span.Auditor in the interface
// would panic at the first tick) and still stamps every connection's spans.
func TestFleetSpansWithoutAuditor(t *testing.T) {
	cfg := &span.Config{SampleEvery: 1, Ring: span.NewRing(2, 4096)}
	_, rep, _ := runTracedFleet(t, 2, cfg, nil)
	if rep.Audit != (engine.AuditStats{}) {
		t.Fatalf("report carries an audit without an auditor: %+v", rep.Audit)
	}
}
