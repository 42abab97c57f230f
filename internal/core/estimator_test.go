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

func TestAggregateWeightsByThroughput(t *testing.T) {
	us := time.Microsecond
	ests := []Estimate{
		{Latency: 100 * us, Throughput: 1000, Valid: true,
			Tail: TailEstimate{P50: 90 * us, P90: 400 * us, P99: 500 * us, P999: 900 * us, Valid: true}},
		{Latency: 300 * us, Throughput: 3000, Valid: true},
		{Latency: time.Second, Valid: false}, // skipped
	}
	ests[1].Tail = TailEstimate{P50: 250 * us, P90: 300 * us, P99: 700 * us, P999: 800 * us, Valid: true}
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
	// Tails combine as the per-quantile envelope, not a weighted mean.
	want := TailEstimate{P50: 250 * us, P90: 400 * us, P99: 700 * us, P999: 900 * us, Valid: true}
	if got.Tail != want {
		t.Fatalf("tail = %+v, want per-quantile max %+v", got.Tail, want)
	}
}

// TestDelaysBetween differences each of the three queues on its own: one
// request resident 50µs in unacked, 20µs in unread, none in ack-delay.
func TestDelaysBetween(t *testing.T) {
	var ua, ur, ad qstate.State
	snap := func(at qstate.Time) Queues {
		return Queues{Unacked: ua.Snapshot(at), Unread: ur.Snapshot(at), AckDelay: ad.Snapshot(at)}
	}
	prev := snap(0)
	ua.Track(0, 1)
	ua.Track(qstate.Time(50*time.Microsecond), -1)
	ur.Track(qstate.Time(50*time.Microsecond), 1)
	ur.Track(qstate.Time(70*time.Microsecond), -1)
	d := DelaysBetween(prev, snap(qstate.Time(100*time.Microsecond)))
	if !d.Unacked.Valid || d.Unacked.Latency != 50*time.Microsecond {
		t.Fatalf("unacked = %+v, want 50µs", d.Unacked)
	}
	if !d.Unread.Valid || d.Unread.Latency != 20*time.Microsecond {
		t.Fatalf("unread = %+v, want 20µs", d.Unread)
	}
	if d.AckDelay.Valid {
		t.Fatalf("idle ack-delay queue reported %+v", d.AckDelay)
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
