package figures

import (
	"testing"
	"time"

	"e2ebatch/internal/core"
)

// TestMultiConnAggregation asserts §3.2's multi-connection remark: each
// connection's estimate is individually valid, the throughput-weighted
// aggregate tracks the pooled measured latency under load, and one
// aggregate-driven decision applied to all connections rescues the SLO.
func TestMultiConnAggregation(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	s := multiConn(Params{Calib: cal, Dur: 300 * time.Millisecond, Seed: 7}, 4, 50000).run()
	perConn := s.Base.Runs[0].conns
	if len(perConn) != 4 {
		t.Fatalf("per-conn estimates = %d", len(perConn))
	}
	for i, e := range perConn {
		if !e.Valid {
			t.Fatalf("conn %d estimate invalid", i)
		}
	}
	agg := statOf[core.Estimate](t, s, "aggregate")
	if !agg.Valid {
		t.Fatal("aggregate invalid")
	}
	measured, dynamic := statOf[time.Duration](t, s, "measured"), statOf[time.Duration](t, s, "dynamic")
	// Deep in overload, queueing dominates and the aggregate must track
	// the measured mean closely.
	if e := relErr(agg.Latency, measured); e > 0.25 {
		t.Errorf("aggregate %v vs measured %v (%.0f%% error)", agg.Latency, measured, 100*e)
	}
	// Aggregate-driven toggling across all four connections must rescue
	// the workload from the multi-ms collapse.
	if dynamic > cal.SLO {
		t.Errorf("dynamic mean %v violates SLO %v", dynamic, cal.SLO)
	}
	if share := statOf[float64](t, s, "on-share"); share < 60 {
		t.Errorf("batch-on residency %.0f%%, want majority", share)
	}
	if dynamic*10 > measured {
		t.Errorf("dynamic %v should be >=10x below static-off %v", dynamic, measured)
	}

	// The per-connection estimates should be mutually consistent (same
	// workload share): max/min within 2x.
	min, max := perConn[0].Latency, perConn[0].Latency
	for _, e := range perConn[1:] {
		if e.Latency < min {
			min = e.Latency
		}
		if e.Latency > max {
			max = e.Latency
		}
	}
	if max > 2*min {
		t.Errorf("per-conn estimates diverge: min %v max %v", min, max)
	}

	checkRenders(t, s)
}

// TestAggregateThroughputSumsConnections checks the aggregate's throughput
// is the sum of per-connection throughputs.
func TestAggregateThroughputSumsConnections(t *testing.T) {
	s := multiConn(Params{Calib: DefaultCalib(), Dur: 200 * time.Millisecond, Seed: 3}, 2, 20000).run()
	var sum float64
	for _, e := range s.Base.Runs[0].conns {
		sum += e.Throughput
	}
	agg := statOf[core.Estimate](t, s, "aggregate")
	if agg.Throughput != sum {
		t.Fatalf("aggregate throughput %v != sum %v", agg.Throughput, sum)
	}
}
