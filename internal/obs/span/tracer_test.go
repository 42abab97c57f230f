package span

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/engine"
)

// tick is a TickResult carrying only the estimate fields the tracer stamps:
// the mean and the composed p99, in nanoseconds, with their validity bits.
func tick(meanNs, p99Ns int64, meanValid, tailValid bool) engine.TickResult {
	return engine.TickResult{Estimate: core.Estimate{
		Latency: time.Duration(meanNs), Valid: meanValid,
		Tail: core.TailEstimate{P99: time.Duration(p99Ns), Valid: tailValid},
	}}
}

// TestSampledDeterministicRate: the sample is a pure function of
// (seed, id) — stable across calls — and lands near 1-in-N.
func TestSampledDeterministicRate(t *testing.T) {
	tr := New(Config{Seed: 42, SampleEvery: 16})
	const n = 1 << 16
	hits := 0
	for id := uint64(0); id < n; id++ {
		s := tr.Sampled(id)
		if s != tr.Sampled(id) {
			t.Fatalf("Sampled(%d) not stable", id)
		}
		if s {
			hits++
		}
	}
	want := n / 16
	if hits < want*8/10 || hits > want*12/10 {
		t.Errorf("sampled %d of %d, want ≈%d (1-in-16)", hits, n, want)
	}
	every := New(Config{Seed: 42, SampleEvery: 1})
	always := New(Config{Seed: 42})
	for id := uint64(0); id < 64; id++ {
		if !every.Sampled(id) || !always.Sampled(id) {
			t.Fatalf("SampleEvery <= 1 must sample everything")
		}
	}
}

// TestSampledSeedIndependence: different seeds select different sets (the
// fleet's per-run decorrelation).
func TestSampledSeedIndependence(t *testing.T) {
	a := New(Config{Seed: 1, SampleEvery: 8})
	b := New(Config{Seed: 2, SampleEvery: 8})
	same := 0
	const n = 4096
	for id := uint64(0); id < n; id++ {
		if a.Sampled(id) == b.Sampled(id) {
			same++
		}
	}
	if same == n {
		t.Error("two seeds selected identical samples over 4096 ids")
	}
}

// TestEstimateStampAndSmoothing: Finish copies the stamp of the tick
// ObserveTick saw last, even one observed after Begin; the p99 stamp seeds
// on the first valid tail and then follows the integer EWMA exactly,
// surviving abstaining ticks in between.
func TestEstimateStampAndSmoothing(t *testing.T) {
	tr := New(Config{Seed: 1, SampleEvery: 1})
	finish := func(id uint64) Span {
		var sp Span
		tr.Begin(&sp, 0, 0, id, 100)
		tr.Finish(&sp, 200)
		return sp
	}

	if sp := finish(0); sp.EstValid || sp.TailValid {
		t.Fatal("stamp valid before any ObserveTick")
	}

	tr.ObserveTick(0, tick(1000, 5000, true, true)) // seeds p99
	sp := finish(1)
	if !sp.EstValid || sp.EstNs != 1000 {
		t.Fatalf("mean stamp = (%v, %d), want (true, 1000)", sp.EstValid, sp.EstNs)
	}
	if !sp.TailValid || sp.EstP99Ns != 5000 {
		t.Fatalf("p99 stamp = (%v, %d), want seeded (true, 5000)", sp.TailValid, sp.EstP99Ns)
	}

	tr.ObserveTick(0, tick(1200, 0, true, false)) // abstain: p99 EWMA holds
	sp = finish(2)
	if sp.TailValid {
		t.Fatal("tail stamp valid on an abstained tick")
	}
	if sp.EstNs != 1200 {
		t.Fatalf("mean stamp %d, want raw 1200", sp.EstNs)
	}

	tr.ObserveTick(0, tick(1100, 9000, true, true))
	want := int64(5000) + (9000-5000)>>tailEWMAShift // not re-seeded
	if sp = finish(3); sp.EstP99Ns != want {
		t.Fatalf("p99 stamp %d after abstain gap, want EWMA %d", sp.EstP99Ns, want)
	}

	// A tick landing between Begin and Finish is the estimate current when
	// the span finished, so the span carries it.
	tr.Begin(&sp, 0, 0, 4, 100)
	tr.ObserveTick(0, tick(2000, 0, true, false))
	tr.Finish(&sp, 300)
	if !sp.EstValid || sp.EstNs != 2000 || sp.TailValid {
		t.Fatalf("stamp = (%v, %d, tail %v), want the newer (true, 2000, tail false)",
			sp.EstValid, sp.EstNs, sp.TailValid)
	}
}

// TestFinishRouting: Finish audits the span and publishes it to the ring.
func TestFinishRouting(t *testing.T) {
	tr := New(Config{
		Seed: 1, SampleEvery: 1,
		Ring:  NewRing(1, 8),
		Audit: NewAuditor(AuditConfig{}),
	})
	tr.ObserveTick(0, tick(1000, 5000, true, true))

	var sp Span
	tr.Begin(&sp, 0, 0, 0, 100)
	tr.Finish(&sp, 300)
	if sp.EnqueueNs != 100 || sp.AckNs != 300 {
		t.Fatalf("span timestamps %+v", sp)
	}
	if st := tr.Auditor().AuditStats(); st.Audited != 1 {
		t.Errorf("audited %d spans, want 1", st.Audited)
	}
	if got := tr.Ring().ShardLast(0, 8); len(got) != 1 || got[0] != sp {
		t.Fatalf("ring holds %+v, want the one finished span %+v", got, sp)
	}
}
