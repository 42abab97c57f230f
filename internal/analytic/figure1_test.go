package analytic

import (
	"math"
	"testing"

	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/sim"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestFigure1PanelA: c=1, batching improves both latency and throughput.
func TestFigure1PanelA(t *testing.T) {
	cmp := Compare(PaperParams(1))
	if !cmp.LatencyImproved || !cmp.ThroughputImproved {
		t.Fatalf("c=1: latencyImproved=%v tputImproved=%v, want both true (batch avg=%v nobatch avg=%v)",
			cmp.LatencyImproved, cmp.ThroughputImproved, cmp.Batch.AvgLatency, cmp.NoBatch.AvgLatency)
	}
	if !approx(cmp.Batch.AvgLatency, 12) {
		t.Fatalf("batch avg latency = %v, want 12", cmp.Batch.AvgLatency)
	}
	if !approx(cmp.NoBatch.AvgLatency, 13) {
		t.Fatalf("no-batch avg latency = %v, want 13", cmp.NoBatch.AvgLatency)
	}
	if !approx(cmp.Batch.Makespan, 13) || !approx(cmp.NoBatch.Makespan, 19) {
		t.Fatalf("makespans = %v/%v, want 13/19", cmp.Batch.Makespan, cmp.NoBatch.Makespan)
	}
}

// TestFigure1PanelB: c=5, batching degrades both.
func TestFigure1PanelB(t *testing.T) {
	cmp := Compare(PaperParams(5))
	if cmp.LatencyImproved || cmp.ThroughputImproved {
		t.Fatalf("c=5: latencyImproved=%v tputImproved=%v, want both false", cmp.LatencyImproved, cmp.ThroughputImproved)
	}
	if !approx(cmp.Batch.AvgLatency, 20) || !approx(cmp.NoBatch.AvgLatency, 17) {
		t.Fatalf("avg latencies = %v/%v, want 20/17", cmp.Batch.AvgLatency, cmp.NoBatch.AvgLatency)
	}
}

// TestFigure1PanelC: c=3, mixed — throughput improves, latency degrades.
func TestFigure1PanelC(t *testing.T) {
	cmp := Compare(PaperParams(3))
	if cmp.LatencyImproved || !cmp.ThroughputImproved {
		t.Fatalf("c=3: latencyImproved=%v tputImproved=%v, want false/true", cmp.LatencyImproved, cmp.ThroughputImproved)
	}
	if !approx(cmp.Batch.AvgLatency, 16) || !approx(cmp.NoBatch.AvgLatency, 15) {
		t.Fatalf("avg latencies = %v/%v, want 16/15", cmp.Batch.AvgLatency, cmp.NoBatch.AvgLatency)
	}
	if !approx(cmp.Batch.Makespan, 19) || !approx(cmp.NoBatch.Makespan, 21) {
		t.Fatalf("makespans = %v/%v, want 19/21", cmp.Batch.Makespan, cmp.NoBatch.Makespan)
	}
}

func TestServerSidePerspectiveIdentical(t *testing.T) {
	// The paper's point: "the activity from the server's perspective
	// remains identical" across c. Server completion times depend only
	// on α, β, n — check by comparing pure server makespans.
	for _, c := range []float64{1, 3, 5} {
		p := PaperParams(c)
		// server-only = client cost 0
		p0 := p
		p0.C = 0
		b := Batch(p0)
		if !approx(b.Makespan, 10) { // 3·2+4
			t.Fatalf("c=%v: batch server makespan = %v, want 10", c, b.Makespan)
		}
		nb := NoBatch(p0)
		if !approx(nb.Makespan, 18) { // 3·6
			t.Fatalf("c=%v: no-batch server makespan = %v, want 18", c, nb.Makespan)
		}
	}
}

func TestBatchKEndpoints(t *testing.T) {
	p := PaperParams(3)
	if got, want := BatchK(p, 1), NoBatch(p); !approx(got.AvgLatency, want.AvgLatency) {
		t.Fatalf("BatchK(1) = %v, NoBatch = %v", got.AvgLatency, want.AvgLatency)
	}
	if got, want := BatchK(p, p.N), Batch(p); !approx(got.AvgLatency, want.AvgLatency) {
		t.Fatalf("BatchK(n) = %v, Batch = %v", got.AvgLatency, want.AvgLatency)
	}
	if got, want := BatchK(p, 100), Batch(p); !approx(got.AvgLatency, want.AvgLatency) {
		t.Fatalf("BatchK(>n) = %v, Batch = %v", got.AvgLatency, want.AvgLatency)
	}
}

func TestBatchKIntermediate(t *testing.T) {
	p := Params{N: 4, Alpha: 2, Beta: 4, C: 1}
	got := BatchK(p, 2)
	// Batch 1 (2 reqs) done at 8: client at 9, 10. Batch 2 done at 16:
	// client at 17, 18. Avg = (9+10+17+18)/4 = 13.5, makespan 18.
	if !approx(got.AvgLatency, 13.5) || !approx(got.Makespan, 18) {
		t.Fatalf("BatchK(2) = avg %v makespan %v, want 13.5/18", got.AvgLatency, got.Makespan)
	}
}

func TestValidation(t *testing.T) {
	if err := (Params{N: 0, Alpha: 1}).Validate(); err == nil {
		t.Fatal("N=0 accepted")
	}
	if err := (Params{N: 1, Alpha: -1}).Validate(); err == nil {
		t.Fatal("negative alpha accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BatchK(0) did not panic")
		}
	}()
	BatchK(PaperParams(1), 0)
}

// TestCrossCheckAgainstDES rebuilds the Figure-1 timeline on the simulator's
// CPU model and confirms the closed form matches event-driven execution.
func TestCrossCheckAgainstDES(t *testing.T) {
	for _, c := range []float64{1, 3, 5} {
		p := PaperParams(c)
		for _, batched := range []bool{true, false} {
			s := sim.New(1)
			server := cpumodel.New(s, "server")
			client := cpumodel.New(s, "client")
			var finish []float64
			record := func() { finish = append(finish, float64(s.Now())) }
			unit := func(x float64) int { return int(x) } // 1ns per model unit
			if batched {
				server.Exec(time.Duration(unit(float64(p.N)*p.Alpha+p.Beta)), sim.Func(func() {
					for i := 0; i < p.N; i++ {
						client.Exec(time.Duration(unit(p.C)), sim.Func(record), 0, nil)
					}
				}), 0, nil)
			} else {
				for i := 0; i < p.N; i++ {
					server.Exec(time.Duration(unit(p.Alpha+p.Beta)), sim.Func(func() {
						client.Exec(time.Duration(unit(p.C)), sim.Func(record), 0, nil)
					}), 0, nil)
				}
			}
			s.Run()
			want := NoBatch(p)
			if batched {
				want = Batch(p)
			}
			if len(finish) != p.N {
				t.Fatalf("c=%v batched=%v: %d completions", c, batched, len(finish))
			}
			for i := range finish {
				if !approx(finish[i], want.Latencies[i]) {
					t.Fatalf("c=%v batched=%v: DES latency[%d]=%v, closed form %v",
						c, batched, i, finish[i], want.Latencies[i])
				}
			}
		}
	}
}
