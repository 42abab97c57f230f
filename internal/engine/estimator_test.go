package engine

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/qstate"
)

// buildQueues drives a synthetic schedule through real qstate.States: each
// request is resident in unacked for ua, in remote unread for ur; the remote
// ackdelay queue holds it for ad.
func buildQueues(t testing.TB, n int, period, ua, ur, ad time.Duration) (l0, l1 core.Queues, r0, r1 qstate.WireState) {
	t.Helper()
	var lu, lr, la qstate.State // local unacked/unread/ackdelay
	var ru, rr, ra qstate.State // remote
	snapL := func(at time.Duration) core.Queues {
		ts := qstate.Time(at)
		return core.Queues{Unacked: lu.Snapshot(ts), Unread: lr.Snapshot(ts), AckDelay: la.Snapshot(ts)}
	}
	snapR := func(at time.Duration) qstate.WireState {
		ts := qstate.Time(at)
		return qstate.WireState{
			Unacked:  qstate.ToWire(ru.Snapshot(ts)),
			Unread:   qstate.ToWire(rr.Snapshot(ts)),
			AckDelay: qstate.ToWire(ra.Snapshot(ts)),
		}
	}
	l0, r0 = snapL(0), snapR(0)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * period
		lu.Track(qstate.Time(at), 1)
		lu.Track(qstate.Time(at+ua), -1)
		rr.Track(qstate.Time(at+ua), 1)
		rr.Track(qstate.Time(at+ua+ur), -1)
		ra.Track(qstate.Time(at+ua), 1)
		ra.Track(qstate.Time(at+ua+ad), -1)
	}
	end := time.Duration(n)*period + ua + ur + ad
	l1, r1 = snapL(end), snapR(end)
	return
}

// tailSample builds an estimator sample at time now whose local and remote
// cumulative tails have recorded n departures of the given delays.
func tailSample(now qstate.Time, lua, rua time.Duration, n uint32) core.Sample {
	s := core.Sample{At: now, RemoteOK: true, LocalTailsOK: true, RemoteTailsOK: true}
	s.Local.Unacked = qstate.Snapshot{Time: now, Total: int64(n), Integral: int64(n) * int64(lua)}
	s.Local.Unread = qstate.Snapshot{Time: now}
	s.Local.AckDelay = qstate.Snapshot{Time: now}
	s.Remote.Unacked = qstate.WireQueue{TimeUS: uint32(uint64(now) / 1000), Total: n, IntegralUS: uint32(uint64(n) * uint64(rua) / 1000)}
	s.Remote.Unread = qstate.WireQueue{TimeUS: uint32(uint64(now) / 1000)}
	s.Remote.AckDelay = qstate.WireQueue{TimeUS: uint32(uint64(now) / 1000)}
	if n > 0 {
		s.LocalTails.Unacked.RecordN(lua, n)
		s.RemoteTails.Unacked.RecordN(rua, n)
	}
	return s
}

// scriptPort serves a fixed sequence of samples, one per Snapshot, and
// accepts every decision.
type scriptPort struct{ samples []core.Sample }

func (p *scriptPort) Snapshot(qstate.Time) core.Sample {
	s := p.samples[0]
	p.samples = p.samples[1:]
	return s
}
func (p *scriptPort) Apply(Decision) error { return nil }
func (p *scriptPort) SelfContained() bool  { return false }

func TestEstimatorEndToEnd(t *testing.T) {
	// 1000 requests, 100µs apart; unacked 50µs, remote unread 20µs,
	// remote ackdelay 10µs. Local view: 50 − 10 + 0 + 20 = 60µs.
	l0, l1, r0, r1 := buildQueues(t, 1000, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	var e estimator
	if got := e.update(core.Sample{Local: l0, Remote: r0, RemoteOK: true}, 0); got.Valid {
		t.Fatal("priming update returned a valid estimate")
	}
	got := e.update(core.Sample{Local: l1, Remote: r1, RemoteOK: true}, 0)
	if !got.Valid {
		t.Fatal("estimate invalid")
	}
	want := 60 * time.Microsecond
	diff := got.LocalView - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("local view = %v, want ~%v", got.LocalView, want)
	}
	// Throughput ≈ 10k requests/sec.
	if got.Throughput < 9000 || got.Throughput > 11000 {
		t.Fatalf("throughput = %v, want ~10000", got.Throughput)
	}
}

func TestEstimatorWithoutRemote(t *testing.T) {
	l0, l1, _, _ := buildQueues(t, 100, 100*time.Microsecond,
		50*time.Microsecond, 0, 0)
	var e estimator
	e.update(core.Sample{Local: l0}, 0)
	got := e.update(core.Sample{Local: l1}, 0)
	if !got.Valid || got.RemoteViewValid {
		t.Fatalf("estimate = %+v", got)
	}
	if got.LocalView < 49*time.Microsecond || got.LocalView > 51*time.Microsecond {
		t.Fatalf("local view = %v, want ~50µs", got.LocalView)
	}
}

func BenchmarkEstimatorUpdate(b *testing.B) {
	l0, l1, r0, r1 := buildQueues(b, 10, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	var e estimator
	e.update(core.Sample{Local: l0, Remote: r0, RemoteOK: true}, 0)
	samples := [2]core.Sample{
		{Local: l1, Remote: r1, RemoteOK: true},
		{Local: l0, Remote: r0, RemoteOK: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.prev = samples[1]
		_ = e.update(samples[0], 0)
	}
}

// TestEstimatorDegradedWithoutRemote: post-priming updates lacking peer
// metadata flag Degraded (with RemoteStale false — nothing ever arrived)
// while the local-only estimate stays valid and sane.
func TestEstimatorDegradedWithoutRemote(t *testing.T) {
	l0, l1, _, _ := buildQueues(t, 100, 100*time.Microsecond,
		50*time.Microsecond, 0, 0)
	var e estimator
	e.update(core.Sample{Local: l0}, 0)
	got := e.update(core.Sample{Local: l1}, 0)
	if !got.Degraded || got.RemoteStale {
		t.Fatalf("estimate = %+v, want Degraded without RemoteStale", got)
	}
	if !got.Valid || got.Latency <= 0 {
		t.Fatalf("degraded estimate lost the local fallback: %+v", got)
	}
}

// TestEstimatorStaleRemoteDegrades: with MaxRemoteAge set, an exchange older
// than the bound is excluded — Degraded and RemoteStale both set, the remote
// terms dropped from the formula — while a fresh exchange keeps the full
// estimate. With the buildQueues workload the remote terms are worth
// −10 + 20 = +10µs on top of the 50µs local unacked delay.
func TestEstimatorStaleRemoteDegrades(t *testing.T) {
	l0, l1, r0, r1 := buildQueues(t, 1000, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	at0, at1 := qstate.Time(0), qstate.Time(200*time.Millisecond)
	near := func(got, want time.Duration) bool {
		d := got - want
		return d > -time.Microsecond && d < time.Microsecond
	}
	const maxAge = 5 * time.Millisecond

	var fresh estimator
	fresh.update(core.Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0}, maxAge)
	got := fresh.update(core.Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: at1 - qstate.Time(time.Millisecond)}, maxAge)
	if got.Degraded || !near(got.LocalView, 60*time.Microsecond) {
		t.Fatalf("fresh exchange: %+v, want non-degraded ~60µs", got)
	}

	var stale estimator
	stale.update(core.Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0}, maxAge)
	got = stale.update(core.Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: at1 - qstate.Time(50*time.Millisecond)}, maxAge)
	if !got.Degraded || !got.RemoteStale {
		t.Fatalf("stale exchange not flagged: %+v", got)
	}
	if !got.Valid || !near(got.LocalView, 50*time.Microsecond) {
		t.Fatalf("stale exchange fallback wrong: %+v, want valid local-only ~50µs", got)
	}

	// Zero MaxRemoteAge disables the check entirely.
	var lax estimator
	lax.update(core.Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0}, 0)
	got = lax.update(core.Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: 0}, 0)
	if got.Degraded {
		t.Fatalf("staleness check ran with MaxRemoteAge zero: %+v", got)
	}
}

// TestEstimatorReset: Endpoint.Reset discards a primed estimator's previous
// sample, so the next tick only re-primes even though an estimate across it
// would be valid, and the re-primed estimator estimates again.
func TestEstimatorReset(t *testing.T) {
	l0, l1, r0, r1 := buildQueues(t, 1000, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	s0 := core.Sample{Local: l0, Remote: r0, RemoteOK: true}
	s1 := core.Sample{Local: l1, Remote: r1, RemoteOK: true}
	ep := New(Config{}, &scriptPort{samples: []core.Sample{s0, s1, s0, s1}})
	ep.Tick(0)
	ep.Reset()
	if r := ep.Tick(0); r.Estimate.Valid {
		t.Fatalf("post-reset first tick must prime, not estimate: %+v", r.Estimate)
	}
	ep.Reset()
	ep.Tick(0)
	if r := ep.Tick(0); !r.Estimate.Valid {
		t.Fatalf("estimate invalid after re-priming: %+v", r.Estimate)
	}
}

// TestEstimatorResetKeepsConfig: a mid-run Endpoint.Reset (connection reset
// fault) re-primes every estimator but must not drop MaxRemoteAge — the
// next connection faces the same network.
func TestEstimatorResetKeepsConfig(t *testing.T) {
	l0, l1, r0, r1 := buildQueues(t, 1000, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	at1 := qstate.Time(200 * time.Millisecond)
	p := &scriptPort{samples: []core.Sample{
		{Local: l0, Remote: r0, RemoteOK: true},
		{Local: l0, Remote: r0, RemoteOK: true},
		{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: at1 - qstate.Time(50*time.Millisecond)},
	}}
	ep := New(Config{MaxRemoteAge: 7 * time.Millisecond}, p)
	ep.Tick(0)
	ep.Reset()
	if r := ep.Tick(0); r.Estimate.Valid || r.Estimate.Degraded {
		t.Fatalf("first post-reset tick not a priming tick: %+v", r.Estimate)
	}
	if r := ep.Tick(at1); !r.Estimate.Degraded || !r.Estimate.RemoteStale {
		t.Fatalf("Reset dropped MaxRemoteAge: a 50ms-old exchange was trusted: %+v", r.Estimate)
	}
}

// TestEstimatorUpdateComputesTail: a primed estimator fed samples carrying
// tail histograms produces a valid Tail whose p99 reflects the slower side
// (per-quantile max of views), and abstains when either side lacks tails.
func TestEstimatorUpdateComputesTail(t *testing.T) {
	var e estimator
	e.update(tailSample(0, 0, 0, 0), 0)
	est := e.update(tailSample(qstate.Time(100*time.Millisecond), 400*time.Microsecond, 900*time.Microsecond, 50), 0)
	if !est.Valid || !est.Tail.Valid {
		t.Fatalf("estimate %+v: tail abstained with tails on both sides", est)
	}
	// The remote view (900µs unacked) dominates; allow bucket quantization.
	if est.Tail.P99 < 700*time.Microsecond || est.Tail.P99 > 1200*time.Microsecond {
		t.Fatalf("tail p99 = %v, want ≈900µs", est.Tail.P99)
	}
	if est.Tail.P50 > est.Tail.P999 {
		t.Fatalf("tail quantiles inverted: %+v", est.Tail)
	}

	// A v1 peer: same stream without remote tails → mean valid, tail abstains.
	var e2 estimator
	s0 := tailSample(0, 0, 0, 0)
	s0.RemoteTailsOK = false
	e2.update(s0, 0)
	s1 := tailSample(qstate.Time(100*time.Millisecond), 400*time.Microsecond, 900*time.Microsecond, 50)
	s1.RemoteTailsOK = false
	est2 := e2.update(s1, 0)
	if !est2.Valid {
		t.Fatalf("mean estimate must survive a v1 peer: %+v", est2)
	}
	if est2.Tail.Valid {
		t.Fatal("tail did not abstain for a v1 peer")
	}

	// Degraded interval (no remote exchange at all) → tail abstains too.
	var e3 estimator
	s0 = tailSample(0, 0, 0, 0)
	s0.RemoteOK = false
	e3.update(s0, 0)
	s1 = tailSample(qstate.Time(100*time.Millisecond), 400*time.Microsecond, 900*time.Microsecond, 50)
	s1.RemoteOK = false
	est3 := e3.update(s1, 0)
	if !est3.Degraded || est3.Tail.Valid {
		t.Fatalf("degraded estimate %+v must not carry a tail", est3)
	}
}
