// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation, each regenerating the corresponding rows/series on the
// simulated testbed and reporting the headline numbers as benchmark
// metrics. The tables themselves print once per benchmark (run with
// `go test -bench=. -benchmem`).
//
// Absolute values come from the calibrated simulator (DESIGN.md §2); the
// metrics to compare against the paper are:
//
//	Figure 4a  slo-extension-x   paper: 1.93
//	Figure 4a  latency-gain-x    paper: 2.80
package e2ebatch_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/hints"
	"e2ebatch/internal/kv"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/obs"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/realtcp"
	"e2ebatch/internal/resp"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// benchDur is the virtual duration of each simulated run. Longer runs
// tighten the statistics but scale wall-clock time linearly.
const benchDur = 300 * time.Millisecond

var printed = map[string]bool{}

func printOnce(b *testing.B, key string, f func()) {
	b.Helper()
	if !printed[key] {
		printed[key] = true
		fmt.Println()
		f()
	}
}

// BenchmarkFigure1 regenerates the Figure 1 outcome matrix (α=2, β=4, n=3,
// c ∈ {1,3,5}): batching improves both metrics, trades off, or degrades
// both, purely as a function of the client cost c.
func BenchmarkFigure1(b *testing.B) {
	var rows []figures.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = figures.Fig1()
	}
	printOnce(b, "fig1", func() { figures.WriteFig1(os.Stdout, rows) })
	b.ReportMetric(rows[0].Batch.AvgLatency, "c1-batch-avglat")
	b.ReportMetric(rows[0].NoBatch.AvgLatency, "c1-plain-avglat")
}

// BenchmarkFigure2 regenerates Figure 2: the fixed-load bare-metal vs VM
// client comparison whose outcome flips with client-side cost.
func BenchmarkFigure2(b *testing.B) {
	s := benchSweep(b, "2", 11)
	cpu, nagle := col[float64](b, s, "cliCPU"), col[string](b, s, "nagle")
	b.ReportMetric(cpu[1]/cpu[0], "vm-client-cpu-x")
	b.ReportMetric(boolMetric(nagle[0] == "helps"), "bare-nagle-helps")
	b.ReportMetric(boolMetric(nagle[1] == "helps"), "vm-nagle-helps")
}

// BenchmarkFigure4a regenerates the Figure 4a sweep: measured and estimated
// latency vs offered load with batching on/off, the cutoff lines, the
// SLO-range extension (paper: 1.93×) and the latency gain at the boundary
// (paper: 2.80×).
func BenchmarkFigure4a(b *testing.B) {
	s := benchSweep(b, "4a", 7)
	b.ReportMetric(stat[float64](b, s, "extension"), "slo-extension-x")
	b.ReportMetric(stat[float64](b, s, "latency gain"), "latency-gain-x")
	b.ReportMetric(stat[float64](b, s, "measured cutoff"), "cutoff-meas-kRPS")
	b.ReportMetric(stat[float64](b, s, "estimated cutoff"), "cutoff-est-kRPS")
}

// BenchmarkFigure4b regenerates the Figure 4b sweep (95:5 SET:GET mix with
// 16 KiB GET responses) — the heterogeneous workload on which byte-based
// estimation degrades.
func BenchmarkFigure4b(b *testing.B) {
	s := benchSweep(b, "4b", 7)
	b.ReportMetric(stat[float64](b, s, "extension"), "slo-extension-x")
	b.ReportMetric(stat[float64](b, s, "measured cutoff"), "cutoff-meas-kRPS")
	b.ReportMetric(stat[float64](b, s, "estimated cutoff"), "cutoff-est-kRPS")
}

// BenchmarkDynamicToggle regenerates the dynamic-toggling experiment: the
// paper's "had they been used to dynamically toggle Nagle batching" (§4)
// run as a closed ε-greedy loop against both static baselines.
func BenchmarkDynamicToggle(b *testing.B) {
	s := benchSweep(b, "toggle", 7)
	off, dyn, share := col[time.Duration](b, s, "off"), col[time.Duration](b, s, "dynamic"), col[float64](b, s, "on-share")
	last := len(s.Rows) - 1
	b.ReportMetric(float64(off[last])/float64(dyn[last]), "dyn-vs-off-x")
	b.ReportMetric(share[last], "on-share-%")
}

// BenchmarkHints regenerates the semantic-gap table (§3.3): per-unit
// estimation error vs the create/complete hints on the heterogeneous
// workload with a syscall-batching client.
func BenchmarkHints(b *testing.B) {
	s := benchSweep(b, "hints", 7)
	meas := col[time.Duration](b, s, "measured")[0]
	b.ReportMetric(100*errOf(col[core.Estimate](b, s, "hints")[0].Latency, meas), "hint-err-%")
	b.ReportMetric(100*errOf(col[core.Estimate](b, s, "bytes")[0].Latency, meas), "bytes-err-%")
}

// BenchmarkAIMD regenerates the §5 AIMD batch-limit experiment: gradual
// cork adaptation instead of on/off toggling.
func BenchmarkAIMD(b *testing.B) {
	s := benchSweep(b, "aimd", 7)
	cork := col[int](b, s, "final cork")
	b.ReportMetric(float64(cork[0]), "low-load-cork-B")
	b.ReportMetric(float64(cork[1]), "high-load-cork-B")
}

// figure returns the e2efig figure called name.
func figure(tb testing.TB, name string) figures.Figure {
	tb.Helper()
	f, ok := figures.Lookup(name)
	if !ok {
		tb.Fatalf("no figure %q", name)
	}
	return f
}

// benchSweep runs the e2efig figure called name b.N times at benchDur and
// the given seed, prints its table once and returns the last run.
func benchSweep(b *testing.B, name string, seed int64) *figures.Sweep {
	b.Helper()
	f := figure(b, name)
	p := figures.Params{Calib: figures.DefaultCalib(), Dur: benchDur, Seed: seed, SyscallBatch: 4}
	var s *figures.Sweep
	for i := 0; i < b.N; i++ {
		s = f.Sweep(p)
	}
	printOnce(b, name, func() { s.Write(os.Stdout) })
	return s
}

// col reads the cells of the column headed name, failing on a name the
// sweep lacks.
func col[T any](tb testing.TB, s *figures.Sweep, name string) []T {
	tb.Helper()
	v, err := figures.Col[T](s, name)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// stat reads the value printed under the table as name, failing on a name
// the sweep does not print.
func stat[T any](tb testing.TB, s *figures.Sweep, name string) T {
	tb.Helper()
	v, err := figures.Stat[T](s, name)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func errOf(est, meas time.Duration) float64 {
	if meas == 0 {
		return 0
	}
	d := est - meas
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(meas)
}

// ---- hot-path microbenchmarks (the §3.1 "easily maintained" claim) ----

// BenchmarkCounterTrack measures one TRACK call — the cost added to every
// queue transition in the stack.
func BenchmarkCounterTrack(b *testing.B) {
	var q qstate.State
	q.Init(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Track(qstate.Time(2*i), 1)
		q.Track(qstate.Time(2*i+1), -1)
	}
}

// BenchmarkGetAvgs measures one GETAVGS evaluation.
func BenchmarkGetAvgs(b *testing.B) {
	prev := qstate.Snapshot{}
	now := qstate.Snapshot{Time: 1 << 30, Total: 1 << 20, Integral: 1 << 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = qstate.GetAvgs(prev, now)
	}
}

// BenchmarkWireExchange measures encoding + decoding one 36-byte metadata
// exchange — the per-segment overhead of §3.2.
func BenchmarkWireExchange(b *testing.B) {
	ws := qstate.WireState{
		Unacked:  qstate.WireQueue{TimeUS: 1, Total: 2, IntegralUS: 3},
		Unread:   qstate.WireQueue{TimeUS: 4, Total: 5, IntegralUS: 6},
		AckDelay: qstate.WireQueue{TimeUS: 7, Total: 8, IntegralUS: 9},
	}
	buf := make([]byte, qstate.WireSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qstate.EncodeWire(buf, ws); err != nil {
			b.Fatal(err)
		}
		if _, err := qstate.DecodeWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndEstimate measures one full two-sided estimate update.
func BenchmarkEndToEndEstimate(b *testing.B) {
	mk := func(lat time.Duration) qstate.Avgs {
		return qstate.Avgs{Latency: lat, Throughput: 1e4, Valid: true, Departures: 10}
	}
	local := core.Delays{Unacked: mk(50 * time.Microsecond), Unread: mk(10 * time.Microsecond)}
	remote := core.Delays{Unread: mk(20 * time.Microsecond), AckDelay: mk(5 * time.Microsecond)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.EstimateE2E(local, remote)
	}
}

// BenchmarkHintAPI measures one create/complete round — the per-request
// cost a cooperative application pays (§3.3).
func BenchmarkHintAPI(b *testing.B) {
	var now qstate.Time
	tr := hints.NewTracker(func() qstate.Time { return now })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now++
		tr.Create(1)
		now++
		tr.Complete(1)
	}
}

// BenchmarkTrackerTrack measures the concurrency-safe TRACK variant — one
// locked add/remove pair on the qstate.Tracker (//e2e:hotpath, 0 allocs).
func BenchmarkTrackerTrack(b *testing.B) {
	tr := qstate.NewTracker(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Track(qstate.Time(2*i), 1)
		tr.Track(qstate.Time(2*i+1), -1)
	}
}

// benchPort is a minimal engine.Port for the tick benchmark: live queue
// counters, decision stored without logging.
type benchPort struct {
	st   qstate.State
	last engine.Decision
}

func (p *benchPort) Snapshot(now qstate.Time) core.Sample {
	return core.Sample{Local: core.Queues{Unacked: p.st.Snapshot(now)}, At: now}
}
func (p *benchPort) Apply(d engine.Decision) error { p.last = d; return nil }
func (p *benchPort) SelfContained() bool           { return true }

// benchToggler satisfies engine.Controller with a fixed decision, so the
// benchmark measures the loop rather than a policy.
type benchToggler struct{}

func (benchToggler) Observe(time.Duration, float64, bool) policy.Mode { return policy.BatchOn }
func (benchToggler) ObserveDegraded() policy.Mode                     { return policy.BatchOn }

// BenchmarkEngineTick measures one full controller-driven decision tick —
// snapshot, estimate, decide, apply (//e2e:hotpath, 0 allocs steady-state).
func BenchmarkEngineTick(b *testing.B) {
	p := &benchPort{}
	p.st.Init(0)
	ep := engine.New(engine.Config{Controller: benchToggler{}, CorkOnBytes: 16 << 10}, p)
	now := qstate.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += qstate.Time(time.Millisecond)
		p.st.Track(now, 1)
		now += qstate.Time(time.Millisecond)
		p.st.Track(now, -1)
		ep.Tick(now)
	}
}

// BenchmarkTcpsimBytePath measures what one 16 KiB request costs the
// simulator's byte path alone: Send, the flushes and ACKs drained over hosts
// and a wire that cost no virtual time, Read on the far side. ns/op, B/op and
// allocs/op are per request.
func BenchmarkTcpsimBytePath(b *testing.B) {
	s := sim.New(1)
	free := func(name string) *tcpsim.Stack {
		st := tcpsim.NewStack(s, name)
		st.TxCosts, st.RxCosts, st.AckTxCost, st.AckRxCost = cpumodel.Costs{}, cpumodel.Costs{}, 0, 0
		return st
	}
	cfg := tcpsim.DefaultConfig()
	cfg.Nagle = false
	cc, sc := tcpsim.Connect(free("client"), free("server"), netem.NewLink(s, "wire", netem.Config{}), cfg)
	sc.OnReadable(func() { sc.Read(0) })
	wire := make([]byte, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Send(wire)
		for s.Step() {
		}
	}
	if cc.Stats().SentDigest != sc.Stats().ReadDigest || sc.Readable() != 0 {
		b.Fatal("byte streams differ between sender and receiver")
	}
}

// BenchmarkKVRequestPath measures what the server pays per request between
// the socket read and the socket write: bytes in the parser's buffer →
// argument views → kv.Engine.Exec → the reply appended to the connection's
// output buffer. One op is a SET and a GET of one key, 16 pairs to a batch
// as a pipelining client sends them; ns/op, B/op and allocs/op are per
// request.
func BenchmarkKVRequestPath(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("value=%d", size), func(b *testing.B) {
			eng := kv.NewEngine(kv.NewStore(func() time.Duration { return 0 }))
			var wire []byte
			for i := 0; i < 8; i++ {
				wire = resp.AppendCommand(wire, []byte("SET"), []byte("key0000000000000"), make([]byte, size))
				wire = resp.AppendCommand(wire, []byte("GET"), []byte("key0000000000000"))
			}
			var parser resp.Parser
			var args [][]byte
			var out []byte
			b.SetBytes(int64(len(wire) / 16))
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				copy(parser.Space(len(wire)), wire)
				parser.Commit(len(wire))
				out = out[:0]
				for {
					var ok bool
					if args, ok, _ = parser.NextCommand(args[:0]); !ok {
						break
					}
					out = resp.AppendValue(out, eng.Exec(args))
					done++
				}
			}
			if want := 8 * (len("+OK\r\n") + len(resp.AppendValue(nil, resp.Bulk(make([]byte, size))))); len(out) != want {
				b.Fatalf("a batch produced %d reply bytes, want %d", len(out), want)
			}
		})
	}
}

// fireConn is the network for BenchmarkClientFire: every Write of whole
// requests is answered with as many replies on the next Read. Read spins
// instead of parking, so handing a batch to the read loop costs a yield,
// not a scheduler wake-up.
type fireConn struct {
	net.Conn
	reqLen  int
	pending atomic.Int64
	closed  atomic.Bool
}

func (f *fireConn) Write(p []byte) (int, error) {
	f.pending.Add(int64(len(p) / f.reqLen))
	return len(p), nil
}

func (f *fireConn) Read(p []byte) (int, error) {
	for !f.closed.Load() {
		if k := f.pending.Swap(0); k > 0 {
			n := 0
			for ; k > 0; k-- {
				n += copy(p[n:], "+OK\r\n")
			}
			return n, nil
		}
		runtime.Gosched()
	}
	return 0, io.EOF
}

func (f *fireConn) Close() error { f.closed.Store(true); return nil }

// BenchmarkClientFire measures the real-socket client's layer as kvload's
// pacer drives it: one fire of 21 requests (a 1 ms wheel tick at 20 k
// req/s) handed over with Queue, written with one Flush, and completed by
// the read loop into a fleet connection's histogram. ns/req is per request.
func BenchmarkClientFire(b *testing.B) {
	const k = 21
	req := resp.AppendCommand(nil, []byte("SET"), bytes.Repeat([]byte{'k'}, 16), bytes.Repeat([]byte{'v'}, 64))
	conn := &fireConn{reqLen: len(req)}
	var hist qstate.DelayHist // the read loop's alone
	c := realtcp.NewClient(conn, realtcp.DialOptions{MaxInflight: 4096,
		OnComplete: func(_ uint64, n int, sentNs, ackNs, _, _ int64) { hist.RecordN(time.Duration(ackNs-sentNs), uint32(n)) }})
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Queue(req, k); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for c.Outstanding() > 0 {
			runtime.Gosched()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/req")
}

// BenchmarkRingPush measures publishing one decision record into the
// telemetry ring (//e2e:hotpath, 0 allocs).
func BenchmarkRingPush(b *testing.B) {
	r := obs.NewRing(1024)
	rec := obs.DecisionRecord{Endpoint: "bench", Mode: "batch-on", Valid: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(0, &rec, &rec.Seq)
	}
}

// BenchmarkObserveTick measures the full telemetry fan-out of one tick:
// counters, gauges, latency histogram and the ring record
// (//e2e:hotpath, 0 allocs).
func BenchmarkObserveTick(b *testing.B) {
	reg := obs.NewRegistry()
	o := obs.NewEngineObserver(obs.NewEngineMetrics(reg), obs.NewRing(1024))
	perPort := make([]core.Estimate, 1)
	samples := make([]core.Sample, 1)
	now := qstate.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += qstate.Time(time.Millisecond)
		samples[0] = core.Sample{At: now, RemoteOK: true, RemoteAt: now}
		perPort[0] = core.Estimate{Latency: time.Millisecond, Throughput: 1000, Valid: true}
		o.ObserveTick(now, engine.TickResult{
			Estimate: perPort[0],
			PerPort:  perPort,
			Mode:     policy.BatchOn,
			Applied:  true,
			Samples:  samples,
		})
	}
}

// BenchmarkTickAblation regenerates the §5 toggling-granularity ablation:
// decision-tick period vs dynamic-policy quality at a high load.
func BenchmarkTickAblation(b *testing.B) {
	s := benchSweep(b, "tick", 7)
	share := col[float64](b, s, "on-share")
	b.ReportMetric(share[0], "finest-on-share-%")
	b.ReportMetric(share[len(share)-1], "coarsest-on-share-%")
}

// BenchmarkExchangeAblation regenerates the §5 metadata-exchange-frequency
// ablation: estimates must stay accurate as exchanges become rare.
func BenchmarkExchangeAblation(b *testing.B) {
	s := benchSweep(b, "exchange", 7)
	ex, online := col[uint64](b, s, "exchanges"), col[time.Duration](b, s, "online est")
	last := len(s.Rows) - 1
	b.ReportMetric(float64(ex[0]), "exchanges-everyseg")
	b.ReportMetric(float64(ex[last]), "exchanges-50ms")
	b.ReportMetric(100*errOf(online[last], online[0]), "estimate-drift-%")
}

// BenchmarkMultiConn regenerates the multi-connection aggregation
// experiment (§3.2): per-connection estimates combined into one policy
// decision covering all connections.
func BenchmarkMultiConn(b *testing.B) {
	s := benchSweep(b, "multiconn", 7)
	measured := stat[time.Duration](b, s, "measured")
	b.ReportMetric(100*errOf(stat[core.Estimate](b, s, "aggregate").Latency, measured), "agg-err-%")
	b.ReportMetric(float64(measured)/float64(stat[time.Duration](b, s, "dynamic")), "dyn-rescue-x")
}

// BenchmarkCScan regenerates the client-cost sweep: Figure 1's c-axis in
// the full system.
func BenchmarkCScan(b *testing.B) {
	s := benchSweep(b, "cscan", 11)
	b.ReportMetric(stat[float64](b, s, "flip scale"), "flip-scale")
}

// BenchmarkBanditCompare regenerates the ε-greedy vs UCB1 controller
// comparison.
func BenchmarkBanditCompare(b *testing.B) {
	s := benchSweep(b, "bandits", 7)
	b.ReportMetric(float64(col[time.Duration](b, s, "ε-greedy")[1])/float64(time.Microsecond), "eps-45k-us")
	b.ReportMetric(float64(col[time.Duration](b, s, "ucb1")[1])/float64(time.Microsecond), "ucb-45k-us")
}

// BenchmarkLossRobustness regenerates the estimator-under-loss sweep.
func BenchmarkLossRobustness(b *testing.B) {
	s := benchSweep(b, "loss", 7)
	// The 1 % row of the figure's 0 / 0.1 / 1 / 5 % grid.
	b.ReportMetric(100*errOf(col[core.Estimate](b, s, "est (bytes)")[2].Latency, col[time.Duration](b, s, "measured")[2]), "lossy-est-err-%")
}
