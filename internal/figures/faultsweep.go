package figures

import (
	"fmt"
	"io"
	"time"

	"e2ebatch/internal/faults"
	"e2ebatch/internal/policy"
)

// FaultRow is one loss-rate setting of the fault sweep.
type FaultRow struct {
	Loss float64
	// Measured is the loadgen's ground-truth mean latency; EstBytes the
	// offline steady-state estimate — their gap is the estimator error the
	// sweep tracks as conditions worsen.
	Measured time.Duration
	EstBytes time.Duration
	// DegradedShare is the fraction of decision ticks the online
	// estimator ran without usable peer metadata.
	DegradedShare float64
	SafeFallbacks uint64
	Retransmits   uint64
	FinalMode     policy.Mode
}

// FaultSweepOut is the fault-injection robustness sweep: the same dynamic
// toggling run under increasing packet loss with a named fault plan layered
// on top. The claim under test is graceful degradation — as loss and
// metadata faults mount, the estimator must flag degraded ticks and the
// policy retreat to its safe default, rather than feed garbage estimates
// into mode decisions.
type FaultSweepOut struct {
	Rate float64
	Plan string
	Rows []FaultRow
}

// FaultSweep runs the sweep at one offered load. plan names a
// faults.Standard plan ("none" for the loss-only baseline).
func FaultSweep(cal Calib, rate float64, losses []float64, plan string, dur time.Duration, seed int64) *FaultSweepOut {
	out := &FaultSweepOut{Rate: rate, Plan: plan}
	var specs []RunSpec
	for _, loss := range losses {
		p, err := faults.Standard(plan, dur)
		if err != nil {
			panic(err)
		}
		specs = append(specs, RunSpec{
			Calib:    cal,
			Seed:     seed,
			Rate:     rate,
			Duration: dur,
			LossProb: loss,
			Dynamic:  DefaultDynamicSpec(cal.SLO),
			Faults:   p,
		})
	}
	for i, r := range runAll(specs) {
		row := FaultRow{
			Loss:          losses[i],
			Measured:      r.Res.Latency.Mean(),
			SafeFallbacks: r.TogglerStats.SafeFallbacks,
			Retransmits:   r.ClientConn.Retransmits + r.ServerConn.Retransmits,
			FinalMode:     r.FinalMode,
		}
		if r.Est[0].Valid {
			row.EstBytes = r.Est[0].Latency
		}
		if r.TotalTicks > 0 {
			row.DegradedShare = float64(r.DegradedTicks) / float64(r.TotalTicks)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// WriteFaultSweep renders the sweep.
func WriteFaultSweep(w io.Writer, f *FaultSweepOut) {
	fmt.Fprintf(w, "Fault injection — %.0f kRPS, plan %q, dynamic toggling\n", f.Rate/1000, f.Plan)
	fmt.Fprintf(w, "%8s | %12s %12s | %9s %9s | %11s %10s\n",
		"loss", "measured", "est (bytes)", "degraded", "fallbacks", "retransmits", "final mode")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%7.1f%% | %12v %12v | %8.1f%% %9d | %11d %10v\n",
			100*r.Loss, r.Measured.Round(time.Microsecond), r.EstBytes.Round(time.Microsecond),
			100*r.DegradedShare, r.SafeFallbacks, r.Retransmits, r.FinalMode)
	}
}
