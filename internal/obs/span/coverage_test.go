package span_test

// End-to-end audit-plane tests on the simulated testbed: the span tracer
// and auditor attached to real figure runs, scoring the live composed-tail
// estimate against per-request ground truth. These live in span_test (not
// figures) because figures is a determinism-scoped package: it may not
// import the observability plane, but the plane's tests may drive it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"e2ebatch/internal/engine"
	"e2ebatch/internal/figures"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/obs/span"
)

// auditRun executes one dynamic tail-targeting run of the named zoo
// workload with the full audit plane attached and returns the tracer and
// the run output.
func auditRun(t *testing.T, workload string, dur time.Duration, seed int64, v1Peer bool) (*span.Tracer, *figures.RunOut) {
	t.Helper()
	w, ok := loadgen.ZooByName(16, 16<<10, workload)
	if !ok {
		t.Fatalf("zoo workload %q missing", workload)
	}
	tr := span.New(span.Config{
		Seed:        uint64(seed),
		SampleEvery: 4,
		Ring:        span.NewRing(1, 8192),
		Audit:       span.NewAuditor(span.AuditConfig{ExpectTail: true}),
	})
	dyn := figures.DefaultDynamicSpec(500 * time.Microsecond)
	dyn.TailQuantile = 0.99
	dyn.TailsV1Peer = v1Peer
	dyn.Audit = tr.Auditor()
	var sp span.Span
	spec := figures.RunSpec{
		Calib:    figures.DefaultCalib(),
		Seed:     seed,
		Rate:     w.Rate,
		Duration: dur,
		Dynamic:  dyn,
		Workload: w.NewMaker(seed),
		Observer: tr,
		OnComplete: func(reqID uint64, scheduledNs, completedNs int64) {
			if !tr.Sampled(reqID) {
				return
			}
			tr.Begin(&sp, 0, 0, reqID, scheduledNs)
			tr.Finish(&sp, completedNs)
		},
	}
	spec.RateFn = w.RateShape
	spec.PreloadKeys = w.PreloadKeys
	return tr, figures.Run(spec)
}

// TestAuditCoveragePaperSet pins the audit plane's headline number: on the
// zoo's paper-set workload the composed p99 estimate covers at least 90%
// of sampled requests' measured delays.
func TestAuditCoveragePaperSet(t *testing.T) {
	tr, out := auditRun(t, "set-16k", 300*time.Millisecond, 7, false)
	st := tr.Auditor().AuditStats()
	t.Logf("audited=%d tailAudited=%d coverage=%.3f residual=%v driftTicks=%d",
		st.Audited, st.TailAudited, st.Coverage, st.ResidualEWMA, out.AuditDriftTicks)
	if st.TailAudited < 100 {
		t.Fatalf("too few tail-audited spans (%d) for a meaningful coverage read", st.TailAudited)
	}
	if st.Coverage < 0.9 {
		t.Errorf("p99 coverage %.3f < 0.9 on the paper-set workload", st.Coverage)
	}
}

// TestAuditDriftTripsOnV1Peer: the chaos case. A tail-targeting policy
// against a v1 peer never composes a tail, so every audited span arrives
// with a valid mean stamp and no tail stamp — the blind-tail clause must
// trip drift deterministically, and the engine must count the degraded
// ticks it caused.
func TestAuditDriftTripsOnV1Peer(t *testing.T) {
	run := func() (engine.AuditStats, int) {
		tr, out := auditRun(t, "set-16k", 200*time.Millisecond, 7, true)
		return tr.Auditor().AuditStats(), out.AuditDriftTicks
	}
	st, driftTicks := run()
	if st.TailAudited != 0 {
		t.Fatalf("v1 peer produced %d tail-audited spans, want 0", st.TailAudited)
	}
	if st.BlindTail < 32 {
		t.Fatalf("only %d blind-tail spans; run too short to trip MinSamples", st.BlindTail)
	}
	if !st.Drifting {
		t.Error("audit not drifting despite a tail-targeting policy with no tail ever composed")
	}
	if driftTicks == 0 {
		t.Error("engine counted no audit-drift ticks")
	}
	st2, driftTicks2 := run()
	if st != st2 || driftTicks != driftTicks2 {
		t.Errorf("drift accounting not deterministic:\n  run1 %+v driftTicks=%d\n  run2 %+v driftTicks=%d",
			st, driftTicks, st2, driftTicks2)
	}
}

// TestSimSpanDigestByteExact: a span-traced sim run reports, for every
// sampled request, exactly the timestamps the simulator's ground truth
// recorded — through the tracer, the ring, and the JSONL export and back.
// Run A records every completion raw; run B (same seed) routes sampled
// completions through the full span pipeline. The parsed-back spans must
// match run A's virtual-time nanoseconds bit for bit, and the sampled set
// must be precisely the set Sampled() selects.
func TestSimSpanDigestByteExact(t *testing.T) {
	const (
		seed   = 11
		every  = 8
		dur    = 150 * time.Millisecond
		ringSz = 8192
	)
	spec := func() figures.RunSpec {
		return figures.RunSpec{
			Calib:    figures.DefaultCalib(),
			Seed:     seed,
			Rate:     30000,
			Duration: dur,
		}
	}

	// Run A: ground truth, every completion.
	type comp struct{ sched, done int64 }
	truth := map[uint64]comp{}
	specA := spec()
	specA.OnComplete = func(reqID uint64, scheduledNs, completedNs int64) {
		truth[reqID] = comp{scheduledNs, completedNs}
	}
	figures.Run(specA)

	// Run B: the span pipeline.
	tr := span.New(span.Config{
		Seed:        seed,
		SampleEvery: every,
		Ring:        span.NewRing(1, ringSz),
	})
	var sp span.Span
	specB := spec()
	specB.OnComplete = func(reqID uint64, scheduledNs, completedNs int64) {
		if !tr.Sampled(reqID) {
			return
		}
		tr.Begin(&sp, 0, 0, reqID, scheduledNs)
		tr.Finish(&sp, completedNs)
	}
	figures.Run(specB)

	if tr.Ring().Len() > uint64(ringSz) {
		t.Fatalf("ring wrapped (%d spans > cap %d); grow the ring so the digest covers every sample", tr.Ring().Len(), ringSz)
	}

	var buf bytes.Buffer
	if err := tr.Ring().WriteJSONL(&buf, ringSz); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var got span.Span
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		want, ok := truth[got.ReqID]
		if !ok {
			t.Fatalf("span for req %d has no ground-truth completion", got.ReqID)
		}
		if got.EnqueueNs != want.sched || got.AckNs != want.done {
			t.Errorf("req %d: span [%d, %d] != ground truth [%d, %d]",
				got.ReqID, got.EnqueueNs, got.AckNs, want.sched, want.done)
		}
		seen[got.ReqID] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no spans exported")
	}
	for id := range truth {
		if tr.Sampled(id) != seen[id] {
			t.Errorf("req %d: Sampled()=%v but exported=%v", id, tr.Sampled(id), seen[id])
		}
	}
}
