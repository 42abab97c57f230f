package figures

import (
	"fmt"
	"io"
	"time"

	"e2ebatch/internal/analytic"
	"e2ebatch/internal/core"
	"e2ebatch/internal/loadgen"
)

// The tail-fidelity harness extends the model-fidelity discipline from means
// to quantiles: from the same zoo replay (Fidelity), take the exact
// post-warmup per-request latency distribution as ground truth at the four
// canonical quantiles (p50/p90/p99/p999), and score three rival tail
// predictors:
//
//   - the composed estimator — per-queue delay histograms captured from the
//     v2 exchange plane, convolved under the Kleinrock independence
//     approximation (core.ComposeTail);
//   - the analytic rival — the Gamma two-moment closed form over the tandem
//     M/G/1 stage sojourns (analytic.E2ETail), fed no measurements;
//   - the naive byte baseline — the empirical quantile of per-request
//     serialization time plus propagation (analytic.NaiveByteTail).
//
// Hypotheses H6–H8 extend the numbered-claim ledger of fidelity.go; the
// rendered report is golden-pinned like the mean report.

// tailQuantileNames labels core.TailQuantiles in report order.
var tailQuantileNames = [4]string{"p50", "p90", "p99", "p999"}

// TailPoint is one workload's tail ground truth and predictions.
type TailPoint struct {
	Workload loadgen.ZooWorkload
	// RateEff is the shape-adjusted mean offered rate.
	RateEff float64
	// Truth holds the exact post-warmup latency quantiles at
	// core.TailQuantiles; Completed counts the samples behind them.
	Truth     [4]time.Duration
	Completed uint64

	// Pred, Scored and Err mirror FidelityPoint, with a per-quantile error
	// vector instead of a scalar. The estimator is the composed tail
	// estimate (RunOut.TailEst), the analytic rival the Gamma closed form,
	// and the naive baseline the byte quantiles.
	Pred   [NumPredictors][4]time.Duration
	Scored [NumPredictors]bool
	Err    [NumPredictors][4]float64
}

// TailFidelityOut is the tail report (FidelityOut.Tails).
type TailFidelityOut struct {
	Points []TailPoint
	// MeanErrP99 is each predictor's mean p99 error over the workloads it
	// scored (ScoredN of them); MeanErrAll averages over all four quantiles.
	MeanErrP99 [NumPredictors]float64
	MeanErrAll [NumPredictors]float64
	ScoredN    [NumPredictors]int

	Hypotheses []Hypothesis
}

// scoreTails aggregates the scored points and judges H6–H8.
func scoreTails(res *TailFidelityOut) {
	for p := Predictor(0); p < NumPredictors; p++ {
		var sum99, sumAll float64
		for _, pt := range res.Points {
			if !pt.Scored[p] {
				continue
			}
			res.ScoredN[p]++
			sum99 += pt.Err[p][2]
			for qi := 0; qi < 4; qi++ {
				sumAll += pt.Err[p][qi]
			}
		}
		if res.ScoredN[p] > 0 {
			res.MeanErrP99[p] = sum99 / float64(res.ScoredN[p])
			res.MeanErrAll[p] = sumAll / float64(4*res.ScoredN[p])
		}
	}
	res.Hypotheses = judgeTails(res)
}

// scoreTailPoint derives one workload's tail predictions and errors.
func scoreTailPoint(cal Calib, z *zooRun) TailPoint {
	out := z.out
	pt := TailPoint{
		Workload:  z.w,
		RateEff:   z.rateEff,
		Completed: out.Res.Latency.Count(),
	}
	for qi, q := range core.TailQuantiles {
		pt.Truth[qi] = out.Res.Latency.Quantile(q)
	}

	// Predictor 1: the composed estimator from the captured histograms.
	if est := out.TailEst; est.Valid {
		pt.Pred[PredEstimator] = [4]time.Duration{est.P50, est.P90, est.P99, est.P999}
		pt.Scored[PredEstimator] = true
	}

	if an := analytic.E2ETail(z.params); an.Stable {
		pt.Pred[PredAnalytic] = [4]time.Duration{an.P50, an.P90, an.P99, an.P999}
		pt.Scored[PredAnalytic] = true
	}

	for qi, q := range core.TailQuantiles {
		pt.Pred[PredNaive][qi] = analytic.NaiveByteTail(z.req, z.resp, float64(cal.Link.BitsPerSec), 2*cal.Link.Propagation, q)
	}
	pt.Scored[PredNaive] = true

	for p := Predictor(0); p < NumPredictors; p++ {
		for qi := 0; qi < 4 && pt.Scored[p]; qi++ {
			pt.Err[p][qi] = relErr(pt.Pred[p][qi], pt.Truth[qi])
		}
	}
	return pt
}

// judgeTails computes the tail hypotheses' verdicts. H6 is the acceptance
// bar: the composed estimator must beat the naive baseline at p99 on every
// single workload, else the histogram exchange buys nothing over counting
// bytes.
func judgeTails(res *TailFidelityOut) []Hypothesis {
	pts := res.Points
	var hs []Hypothesis

	// H6 — per-workload p99 dominance over the strawman.
	h6, worst := true, ""
	for i := range pts {
		if !pts[i].Scored[PredEstimator] || pts[i].Err[PredEstimator][2] > pts[i].Err[PredNaive][2] {
			h6 = false
			worst = pts[i].Workload.Name
		}
	}
	ev := "estimator p99 error <= naive p99 error on every workload"
	if !h6 {
		ev = fmt.Sprintf("naive baseline beats the estimator at p99 on %q", worst)
	}
	hs = append(hs, Hypothesis{
		ID:      "H6",
		Claim:   "the composed tail estimator beats the naive byte baseline at p99 on every workload",
		Verdict: verdict(h6), Evidence: ev,
	})

	// H7 — absolute accuracy. The bar is looser than the mean's 10%: each
	// stage contributes a 12.5% bucket-quantization floor, and the
	// histograms weight residence per byte while the truth weights it per
	// request, which skews the low quantiles of large-request workloads.
	h7 := res.ScoredN[PredEstimator] == len(pts) && res.MeanErrP99[PredEstimator] < 0.35
	hs = append(hs, Hypothesis{
		ID:      "H7",
		Claim:   "the composed estimator stays within 35% workload-level mean p99 error across the zoo",
		Verdict: verdict(h7),
		Evidence: fmt.Sprintf("mean p99 error %.1f%% over %d/%d workloads scored",
			100*res.MeanErrP99[PredEstimator], res.ScoredN[PredEstimator], len(pts)),
	})

	// H8 — the tail analogue of H4: bursts fill the queues the estimator
	// measures but violate the closed form's Poisson assumption.
	h8 := true
	var h8ev string
	for i := range pts {
		pt := &pts[i]
		if !modulated(pt.Workload) {
			continue
		}
		ok := pt.Scored[PredEstimator] &&
			(!pt.Scored[PredAnalytic] || pt.Err[PredAnalytic][2] > pt.Err[PredEstimator][2])
		h8 = h8 && ok
		an := "abstained"
		if pt.Scored[PredAnalytic] {
			an = fmt.Sprintf("%.1f%%", 100*pt.Err[PredAnalytic][2])
		}
		h8ev += fmt.Sprintf("%s: estimator %.1f%% vs analytic %s; ",
			pt.Workload.Name, 100*pt.Err[PredEstimator][2], an)
	}
	hs = append(hs, Hypothesis{
		ID:      "H8",
		Claim:   "modulated arrivals degrade the analytic tail model more than the composed estimator at p99",
		Verdict: verdict(h8), Evidence: h8ev,
	})
	return hs
}

// WriteTailFidelity renders the tail report: one block of four rows per
// workload (truth plus each predictor's quantiles and per-quantile errors).
// Fully deterministic, golden-tested byte-for-byte.
func WriteTailFidelity(w io.Writer, out *FidelityOut) {
	f := &out.Tails
	fmt.Fprintf(w, "TAIL FIDELITY — composed quantiles vs tcpsim ground truth (seed %d, %v runs, warmup %v)\n",
		out.Seed, out.Dur, out.Dur/5)
	fmt.Fprintf(w, "%-16s %-10s %10s %10s %10s %10s | %6s %6s %6s %6s\n",
		"workload", "predictor", tailQuantileNames[0], tailQuantileNames[1],
		tailQuantileNames[2], tailQuantileNames[3], "e50", "e90", "e99", "e999")
	for i := range f.Points {
		pt := &f.Points[i]
		fmt.Fprintf(w, "%-16s %-10s %10v %10v %10v %10v |\n",
			pt.Workload.Name, "truth",
			pt.Truth[0].Round(time.Microsecond), pt.Truth[1].Round(time.Microsecond),
			pt.Truth[2].Round(time.Microsecond), pt.Truth[3].Round(time.Microsecond))
		for p := Predictor(0); p < NumPredictors; p++ {
			if !pt.Scored[p] {
				fmt.Fprintf(w, "%-16s %-10s %10s %10s %10s %10s |\n", "", p, "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, "%-16s %-10s %10v %10v %10v %10v | %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
				"", p,
				pt.Pred[p][0].Round(time.Microsecond), pt.Pred[p][1].Round(time.Microsecond),
				pt.Pred[p][2].Round(time.Microsecond), pt.Pred[p][3].Round(time.Microsecond),
				100*pt.Err[p][0], 100*pt.Err[p][1], 100*pt.Err[p][2], 100*pt.Err[p][3])
		}
	}
	fmt.Fprintf(w, "p99 mean error:")
	for p := Predictor(0); p < NumPredictors; p++ {
		fmt.Fprintf(w, "  %s %.1f%% (%d/%d)", p, 100*f.MeanErrP99[p], f.ScoredN[p], len(f.Points))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "all-quantile mean error:")
	for p := Predictor(0); p < NumPredictors; p++ {
		fmt.Fprintf(w, "  %s %.1f%%", p, 100*f.MeanErrAll[p])
	}
	fmt.Fprintln(w)
	writeHypotheses(w, f.Hypotheses)
}
