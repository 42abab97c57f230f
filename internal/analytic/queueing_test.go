package analytic

import (
	"math"
	"testing"
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/sim"
)

func TestMM1KnownValues(t *testing.T) {
	// ρ=0.5 with S=10ms ⇒ W = 10/(1-0.5) = 20ms.
	if got := MM1Wait(50, 10*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("MM1 = %v, want 20ms", got)
	}
}

func TestMD1KnownValues(t *testing.T) {
	// ρ=0.5, S=10ms ⇒ W = 10 + 0.5·10/(2·0.5) = 15ms.
	if got := MD1Wait(50, 10*time.Millisecond); got != 15*time.Millisecond {
		t.Fatalf("MD1 = %v, want 15ms", got)
	}
}

func TestMG1Reductions(t *testing.T) {
	lam, s := 70.0, 10*time.Millisecond
	if MG1Wait(lam, s, 0) != MD1Wait(lam, s) {
		t.Fatal("MG1(cv2=0) != MD1")
	}
	if MG1Wait(lam, s, 1) != MM1Wait(lam, s) {
		t.Fatal("MG1(cv2=1) != MM1")
	}
}

func TestUnstableQueuesPanic(t *testing.T) {
	for i, f := range []func(){
		func() { MM1Wait(100, 10*time.Millisecond) },
		func() { MD1Wait(100, 10*time.Millisecond) },
		func() { MG1Wait(200, 10*time.Millisecond, 0.5) },
		func() { MG1Wait(10, 10*time.Millisecond, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestUtilizationAndSaturation(t *testing.T) {
	if got := Utilization(50, 10*time.Millisecond); got != 0.5 {
		t.Fatalf("Utilization = %v", got)
	}
	if got := SaturationRate(10 * time.Millisecond); got != 100 {
		t.Fatalf("SaturationRate = %v", got)
	}
}

// TestMD1MatchesDES drives an M/D/1 queue through the discrete-event CPU
// model and checks the measured mean system time against
// Pollaczek–Khinchine — the simulator's queueing core is exact, so this
// must match within sampling noise.
func TestMD1MatchesDES(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.85} {
		service := 20 * time.Microsecond
		lambda := rho / service.Seconds()
		s := sim.New(99)
		cpu := cpumodel.New(s, "srv")

		var total time.Duration
		n := 0
		const jobs = 60000
		var arrive func()
		arrive = func() {
			start := s.Now()
			cpu.Exec(service, sim.Func(func() {
				total += s.Now().Sub(start)
				n++
			}), 0, nil)
			gap := time.Duration(s.Rand().ExpFloat64() * float64(time.Second) / lambda)
			if n < jobs {
				s.After(gap, arrive)
			}
		}
		s.At(0, arrive)
		s.Run()

		got := total / time.Duration(n)
		want := MD1Wait(lambda, service)
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.05 {
			t.Errorf("rho=%.2f: DES %v vs M/D/1 %v (%.1f%% error)", rho, got, want, 100*relErr)
		}
	}
}
