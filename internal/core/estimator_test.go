package core

import (
	"testing"
	"time"

	"e2ebatch/internal/qstate"
)

// mkAvgs builds a valid Avgs with the given latency and throughput.
func mkDelay(lat time.Duration, tput float64) qstate.Avgs {
	return qstate.Avgs{Latency: lat, Throughput: tput, Valid: true, Departures: 1}
}

func TestViewLatencyFormula(t *testing.T) {
	local := Delays{
		Unacked: mkDelay(100*time.Microsecond, 1000),
		Unread:  mkDelay(20*time.Microsecond, 1000),
	}
	remote := Delays{
		Unread:   mkDelay(30*time.Microsecond, 1000),
		AckDelay: mkDelay(10*time.Microsecond, 1000),
	}
	// L = 100 - 10 + 20 + 30 = 140µs
	got, ok := viewLatency(local, remote)
	if !ok {
		t.Fatal("view invalid")
	}
	if got != 140*time.Microsecond {
		t.Fatalf("L = %v, want 140µs", got)
	}
}

func TestViewLatencyRequiresUnacked(t *testing.T) {
	local := Delays{Unread: mkDelay(time.Microsecond, 1)}
	if _, ok := viewLatency(local, Delays{}); ok {
		t.Fatal("view valid without unacked delay")
	}
}

func TestViewLatencyIdleQueuesContributeZero(t *testing.T) {
	local := Delays{Unacked: mkDelay(50*time.Microsecond, 1)}
	got, ok := viewLatency(local, Delays{})
	if !ok || got != 50*time.Microsecond {
		t.Fatalf("L = %v,%v want 50µs,true", got, ok)
	}
}

func TestViewLatencyClampsNegative(t *testing.T) {
	local := Delays{Unacked: mkDelay(5*time.Microsecond, 1)}
	remote := Delays{AckDelay: mkDelay(50*time.Microsecond, 1)}
	got, ok := viewLatency(local, remote)
	if !ok || got != 0 {
		t.Fatalf("L = %v,%v want 0,true (clamped)", got, ok)
	}
}

func TestEstimateE2ETakesMaxOfViews(t *testing.T) {
	local := Delays{Unacked: mkDelay(100*time.Microsecond, 500)}
	remote := Delays{Unacked: mkDelay(150*time.Microsecond, 700)}
	e := EstimateE2E(local, remote)
	if !e.Valid || !e.LocalViewValid || !e.RemoteViewValid {
		t.Fatalf("validity: %+v", e)
	}
	if e.Latency != 150*time.Microsecond {
		t.Fatalf("latency = %v, want max view 150µs", e.Latency)
	}
	if e.Throughput != 500 {
		t.Fatalf("throughput = %v, want local λ 500", e.Throughput)
	}
}

func TestEstimateE2ESingleView(t *testing.T) {
	local := Delays{Unacked: mkDelay(80*time.Microsecond, 100)}
	e := EstimateE2E(local, Delays{})
	if !e.Valid || e.RemoteViewValid {
		t.Fatalf("validity: %+v", e)
	}
	if e.Latency != 80*time.Microsecond {
		t.Fatalf("latency = %v", e.Latency)
	}

	e = EstimateE2E(Delays{}, local)
	if !e.Valid || e.LocalViewValid {
		t.Fatalf("remote-only validity: %+v", e)
	}
	if e.Latency != 80*time.Microsecond {
		t.Fatalf("remote-only latency = %v", e.Latency)
	}
}

func TestEstimateE2EInvalidWhenIdle(t *testing.T) {
	if e := EstimateE2E(Delays{}, Delays{}); e.Valid {
		t.Fatal("idle estimate reported valid")
	}
}

// buildQueues drives a synthetic schedule through real qstate.States: each
// request is resident in unacked for ua, in remote unread for ur; the remote
// ackdelay queue holds it for ad.
func buildQueues(t *testing.T, n int, period, ua, ur, ad time.Duration) (l0, l1 Queues, r0, r1 qstate.WireState) {
	t.Helper()
	var lu, lr, la qstate.State // local unacked/unread/ackdelay
	var ru, rr, ra qstate.State // remote
	snapL := func(at time.Duration) Queues {
		ts := qstate.Time(at)
		return Queues{Unacked: lu.Snapshot(ts), Unread: lr.Snapshot(ts), AckDelay: la.Snapshot(ts)}
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

func TestEstimatorEndToEnd(t *testing.T) {
	// 1000 requests, 100µs apart; unacked 50µs, remote unread 20µs,
	// remote ackdelay 10µs. Local view: 50 − 10 + 0 + 20 = 60µs.
	l0, l1, r0, r1 := buildQueues(t, 1000, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	var e Estimator
	if got := e.Update(Sample{Local: l0, Remote: r0, RemoteOK: true}); got.Valid {
		t.Fatal("priming update returned a valid estimate")
	}
	got := e.Update(Sample{Local: l1, Remote: r1, RemoteOK: true})
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
	var e Estimator
	e.Update(Sample{Local: l0})
	got := e.Update(Sample{Local: l1})
	if !got.Valid || got.RemoteViewValid {
		t.Fatalf("estimate = %+v", got)
	}
	if got.LocalView < 49*time.Microsecond || got.LocalView > 51*time.Microsecond {
		t.Fatalf("local view = %v, want ~50µs", got.LocalView)
	}
}

func TestEstimatorReset(t *testing.T) {
	var e Estimator
	e.Update(Sample{})
	e.Reset()
	if got := e.Update(Sample{}); got.Valid {
		t.Fatal("post-reset first update must prime, not estimate")
	}
}

func TestAggregateWeightsByThroughput(t *testing.T) {
	ests := []Estimate{
		{Latency: 100 * time.Microsecond, Throughput: 1000, Valid: true},
		{Latency: 300 * time.Microsecond, Throughput: 3000, Valid: true},
		{Latency: time.Second, Valid: false}, // skipped
	}
	got := Aggregate(ests)
	if !got.Valid {
		t.Fatal("aggregate invalid")
	}
	// (100·1000 + 300·3000) / 4000 = 250µs
	if got.Latency != 250*time.Microsecond {
		t.Fatalf("latency = %v, want 250µs", got.Latency)
	}
	if got.Throughput != 4000 {
		t.Fatalf("throughput = %v, want 4000", got.Throughput)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := Aggregate(nil); got.Valid {
		t.Fatal("empty aggregate valid")
	}
	if got := Aggregate([]Estimate{{Valid: false}}); got.Valid {
		t.Fatal("all-invalid aggregate valid")
	}
}

func TestAggregateZeroThroughputWeight(t *testing.T) {
	ests := []Estimate{
		{Latency: 100 * time.Microsecond, Throughput: 0, Valid: true},
		{Latency: 200 * time.Microsecond, Throughput: 0, Valid: true},
	}
	got := Aggregate(ests)
	if !got.Valid || got.Latency != 150*time.Microsecond {
		t.Fatalf("aggregate = %+v, want equal-weight 150µs", got)
	}
}

func BenchmarkEstimatorUpdate(b *testing.B) {
	l0, l1, r0, r1 := buildQueues(&testing.T{}, 10, 100*time.Microsecond,
		50*time.Microsecond, 20*time.Microsecond, 10*time.Microsecond)
	var e Estimator
	e.Update(Sample{Local: l0, Remote: r0, RemoteOK: true})
	samples := [2]Sample{
		{Local: l1, Remote: r1, RemoteOK: true},
		{Local: l0, Remote: r0, RemoteOK: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.prev = samples[1]
		_ = e.Update(samples[0])
	}
}

// TestEstimatorDegradedWithoutRemote: post-priming updates lacking peer
// metadata flag Degraded (with RemoteStale false — nothing ever arrived)
// while the local-only estimate stays valid and sane.
func TestEstimatorDegradedWithoutRemote(t *testing.T) {
	l0, l1, _, _ := buildQueues(t, 100, 100*time.Microsecond,
		50*time.Microsecond, 0, 0)
	var e Estimator
	e.Update(Sample{Local: l0})
	got := e.Update(Sample{Local: l1})
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

	fresh := Estimator{MaxRemoteAge: 5 * time.Millisecond}
	fresh.Update(Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0})
	got := fresh.Update(Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: at1 - qstate.Time(time.Millisecond)})
	if got.Degraded || !near(got.LocalView, 60*time.Microsecond) {
		t.Fatalf("fresh exchange: %+v, want non-degraded ~60µs", got)
	}

	stale := Estimator{MaxRemoteAge: 5 * time.Millisecond}
	stale.Update(Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0})
	got = stale.Update(Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: at1 - qstate.Time(50*time.Millisecond)})
	if !got.Degraded || !got.RemoteStale {
		t.Fatalf("stale exchange not flagged: %+v", got)
	}
	if !got.Valid || !near(got.LocalView, 50*time.Microsecond) {
		t.Fatalf("stale exchange fallback wrong: %+v, want valid local-only ~50µs", got)
	}

	// Zero MaxRemoteAge disables the check entirely.
	lax := Estimator{}
	lax.Update(Sample{Local: l0, Remote: r0, RemoteOK: true, At: at0, RemoteAt: at0})
	got = lax.Update(Sample{Local: l1, Remote: r1, RemoteOK: true, At: at1, RemoteAt: 0})
	if got.Degraded {
		t.Fatalf("staleness check ran with MaxRemoteAge zero: %+v", got)
	}
}

// TestEstimatorResetKeepsConfig: a mid-run Reset (connection reset fault)
// re-primes but must not wipe MaxRemoteAge — the next connection faces the
// same network.
func TestEstimatorResetKeepsConfig(t *testing.T) {
	e := Estimator{MaxRemoteAge: 7 * time.Millisecond}
	e.Update(Sample{})
	e.Reset()
	if e.MaxRemoteAge != 7*time.Millisecond {
		t.Fatalf("Reset wiped MaxRemoteAge: %v", e.MaxRemoteAge)
	}
	if got := e.Update(Sample{}); got.Valid || got.Degraded {
		t.Fatalf("first post-reset update not a priming update: %+v", got)
	}
}
