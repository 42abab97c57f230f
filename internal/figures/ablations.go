package figures

import (
	"fmt"
	"io"
	"time"
)

// TickRow is one toggling-granularity setting (§5 "Toggling Granularity"):
// finer ticks react faster, coarser ticks resist noise.
type TickRow struct {
	Interval time.Duration
	Dynamic  time.Duration
	OnShare  float64
	Switches uint64
}

// TickAblationOut sweeps the decision-tick period at a fixed high load
// where batching clearly wins.
type TickAblationOut struct {
	Rate     float64
	StaticOn time.Duration
	Rows     []TickRow
}

// TickAblation runs the toggling-granularity sweep.
func TickAblation(cal Calib, rate float64, intervals []time.Duration, dur time.Duration, seed int64) *TickAblationOut {
	out := &TickAblationOut{Rate: rate}
	specs := []RunSpec{{Calib: cal, Seed: seed, Rate: rate, Duration: dur, BatchOn: true}}
	for _, iv := range intervals {
		d := DefaultDynamicSpec(cal.SLO)
		d.Interval = iv
		specs = append(specs, RunSpec{Calib: cal, Seed: seed, Rate: rate, Duration: dur, Dynamic: d})
	}
	outs := runAll(specs)
	out.StaticOn = outs[0].Res.Latency.Mean()
	for i, iv := range intervals {
		rr := outs[i+1]
		out.Rows = append(out.Rows, TickRow{
			Interval: iv,
			Dynamic:  rr.Res.Latency.Mean(),
			OnShare:  rr.OnShare,
			Switches: rr.TogglerStats.Switches,
		})
	}
	return out
}

// WriteTickAblation renders the granularity table.
func WriteTickAblation(w io.Writer, t *TickAblationOut) {
	fmt.Fprintf(w, "Toggling granularity ablation — %.0f kRPS, static batch-on = %v\n",
		t.Rate/1000, t.StaticOn.Round(time.Microsecond))
	fmt.Fprintf(w, "%10s | %10s %9s %9s\n", "tick", "dynamic", "on-share", "switches")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%10v | %10v %8.0f%% %9d\n",
			r.Interval, r.Dynamic.Round(time.Microsecond), 100*r.OnShare, r.Switches)
	}
}

// ExchangeRow is one metadata-exchange frequency setting (§5 "Metadata
// Exchange"): the paper argues the exchange can be made arbitrarily
// infrequent because "Little's law estimates remain accurate regardless".
type ExchangeRow struct {
	Interval  time.Duration // 0 = state on every segment
	Exchanges uint64        // states actually carried
	Measured  time.Duration
	OnlineAvg time.Duration
	Count     int
}

// ExchangeAblationOut sweeps the exchange rate limit at a fixed load.
type ExchangeAblationOut struct {
	Rate float64
	Rows []ExchangeRow
}

// ExchangeAblation runs the exchange-frequency sweep with a passive online
// estimator sampling every 5 ms.
func ExchangeAblation(cal Calib, rate float64, intervals []time.Duration, dur time.Duration, seed int64) *ExchangeAblationOut {
	out := &ExchangeAblationOut{Rate: rate}
	var specs []RunSpec
	for _, iv := range intervals {
		specs = append(specs, RunSpec{
			Calib:               cal,
			Seed:                seed,
			Rate:                rate,
			Duration:            dur,
			BatchOn:             true,
			ExchangeInterval:    iv,
			OnlineEstimateEvery: 5 * time.Millisecond,
		})
	}
	for i, r := range runAll(specs) {
		out.Rows = append(out.Rows, ExchangeRow{
			Interval:  intervals[i],
			Exchanges: r.ClientConn.StatesExchanged + r.ServerConn.StatesExchanged,
			Measured:  r.Res.Latency.Mean(),
			OnlineAvg: r.OnlineAvg,
			Count:     r.OnlineCount,
		})
	}
	return out
}

// WriteExchangeAblation renders the exchange-frequency table.
func WriteExchangeAblation(w io.Writer, e *ExchangeAblationOut) {
	fmt.Fprintf(w, "Metadata-exchange frequency ablation — %.0f kRPS, batch-on\n", e.Rate/1000)
	fmt.Fprintf(w, "%12s | %10s | %10s %12s %7s\n", "interval", "exchanges", "measured", "online est", "ticks")
	for _, r := range e.Rows {
		iv := "every-seg"
		if r.Interval > 0 {
			iv = r.Interval.String()
		}
		fmt.Fprintf(w, "%12s | %10d | %10v %12v %7d\n",
			iv, r.Exchanges, r.Measured.Round(time.Microsecond),
			r.OnlineAvg.Round(time.Microsecond), r.Count)
	}
}

// LossRow is one loss-probability setting of the robustness sweep.
type LossRow struct {
	Loss        float64
	Measured    time.Duration
	EstBytes    time.Duration
	Retransmits uint64
	Dropped     uint64
}

// LossOut probes the estimator under packet loss with go-back-N recovery:
// the paper's queueing argument holds for admitted packets, and recovery
// delay is genuine residency in the unacked queue — so measured and
// estimated latency should inflate together rather than diverge.
type LossOut struct {
	Rate float64
	Rows []LossRow
}

// LossRobustness runs the sweep at a moderate load.
func LossRobustness(cal Calib, rate float64, losses []float64, dur time.Duration, seed int64) *LossOut {
	out := &LossOut{Rate: rate}
	var specs []RunSpec
	for _, loss := range losses {
		specs = append(specs, RunSpec{Calib: cal, Seed: seed, Rate: rate, Duration: dur, LossProb: loss})
	}
	for i, r := range runAll(specs) {
		row := LossRow{
			Loss:        losses[i],
			Measured:    r.Res.Latency.Mean(),
			Retransmits: r.ClientConn.Retransmits + r.ServerConn.Retransmits,
			Dropped:     r.Res.Dropped,
		}
		if r.Est[0].Valid {
			row.EstBytes = r.Est[0].Latency
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// WriteLoss renders the loss sweep.
func WriteLoss(w io.Writer, l *LossOut) {
	fmt.Fprintf(w, "Loss robustness — %.0f kRPS with go-back-N recovery\n", l.Rate/1000)
	fmt.Fprintf(w, "%8s | %12s %12s | %11s %8s\n", "loss", "measured", "est (bytes)", "retransmits", "dropped")
	for _, r := range l.Rows {
		fmt.Fprintf(w, "%7.1f%% | %12v %12v | %11d %8d\n",
			100*r.Loss, r.Measured.Round(time.Microsecond), r.EstBytes.Round(time.Microsecond),
			r.Retransmits, r.Dropped)
	}
}
