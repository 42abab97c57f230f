package figures

import (
	"fmt"
	"io"
	"time"

	"e2ebatch/internal/analytic"
	"e2ebatch/internal/core"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/tcpsim"
)

// The model-fidelity harness (ROADMAP item 4): replay every workload-zoo
// member through the simulator, where exact virtual timestamps make the
// measured post-warmup mean latency airtight ground truth, and score three
// rival predictors against it side by side:
//
//   - the measured estimator — the paper's §3.2 queue-counter estimate,
//     evaluated offline over the steady-state window (byte units);
//   - the analytic rival — the closed-form tandem M/G/1 model in
//     internal/analytic, fed only workload statistics and calibration
//     constants, never measurements;
//   - the naive byte baseline — bytes over bandwidth plus propagation.
//
// Each predictor gets a per-workload relative error and a workload-level
// E2E mean error (the <10% success-metric discipline of the inference-sim
// exemplar), and the report closes with numbered-hypothesis verdicts
// computed from the data. Every later estimator change is expected to keep
// H1 standing or consciously renegotiate it.

// Predictor indexes the scored models.
type Predictor int

const (
	PredEstimator Predictor = iota
	PredAnalytic
	PredNaive
	NumPredictors
)

// String names the predictor.
func (p Predictor) String() string {
	switch p {
	case PredEstimator:
		return "estimator"
	case PredAnalytic:
		return "analytic"
	case PredNaive:
		return "naive"
	}
	return "unknown"
}

// FidelityPoint is one workload's ground truth and predictions.
type FidelityPoint struct {
	Workload loadgen.ZooWorkload
	// RateEff is the shape-adjusted mean offered rate.
	RateEff float64
	// Truth is the sim ground truth: post-warmup mean latency. Completed
	// counts post-warmup samples.
	Truth     time.Duration
	Completed uint64

	// An is the analytic tandem prediction, with its per-stage breakdown.
	An analytic.E2EOut

	// Pred and Scored hold each predictor's latency and whether it
	// produced one (an invalid estimate or unstable closed form abstains).
	Pred   [NumPredictors]time.Duration
	Scored [NumPredictors]bool
	// Err is |Pred−Truth|/Truth per predictor, meaningful when Scored.
	Err [NumPredictors]float64

	// Hints is the create/complete hint tracker's post-warmup estimate and
	// HintErr its error, meaningful when Hints.Valid. It is no predictor:
	// the hint queue holds each request for its whole life, so scoring it
	// checks the window arithmetic, not an estimator.
	Hints   core.Estimate
	HintErr float64
}

// Hypothesis is one numbered claim with its data-driven verdict.
type Hypothesis struct {
	ID, Claim, Verdict, Evidence string
}

// FidelityOut is the full harness result: the mean report, and in Tails the
// tail report scored from the same runs.
type FidelityOut struct {
	Seed int64
	Dur  time.Duration

	Points []FidelityPoint
	// MeanErr is each predictor's workload-level E2E mean error over the
	// workloads it scored (ScoredN of them).
	MeanErr [NumPredictors]float64
	ScoredN [NumPredictors]int

	Hypotheses []Hypothesis

	Tails TailFidelityOut
}

// zooRun is one workload's replay plus what the a-priori predictors see of
// it: the shape-adjusted rate, sampled request/response sizes, and the
// tandem-queue parameters built from them.
type zooRun struct {
	w         loadgen.ZooWorkload
	rateEff   float64
	req, resp []float64
	params    analytic.E2EParams
	out       *RunOut
}

// Fidelity replays the workload zoo once and scores both reports from those
// runs. Each workload runs under its own derived seed with tail capture and
// the hint tracker on; both are passive (capture reads the cumulative
// histograms at warmup and at the end, the tracker costs no virtual time),
// so the traffic is what a bare run sends. Runs fan out across the sweep
// worker pool like every other figure.
func Fidelity(cal Calib, dur time.Duration, seed int64) *FidelityOut {
	zoo := loadgen.Zoo(cal.KeySize, cal.ValSize)
	specs := make([]RunSpec, len(zoo))
	for i, w := range zoo {
		wseed := seed + int64(i)*101
		specs[i] = RunSpec{
			Calib:        cal,
			Seed:         wseed,
			Rate:         w.Rate,
			RateFn:       w.RateShape,
			Duration:     dur,
			BatchOn:      w.BatchOn,
			Workload:     w.NewMaker(wseed),
			PreloadKeys:  w.PreloadKeys,
			SyscallBatch: w.SyscallBatch,
			WithHints:    true,
			TailCapture:  true,
		}
	}
	outs := RunMany(specs, Parallelism())

	res := &FidelityOut{Seed: seed, Dur: dur}
	for i, w := range zoo {
		z := zooRun{w: w, rateEff: w.Rate * loadgen.MeanShape(w.RateShape, dur), out: outs[i]}
		// The a-priori predictors see only the workload profile and
		// calibration.
		req, resp := w.Sizes(specs[i].Seed, min(max(int(z.rateEff*dur.Seconds()), 256), 8192))
		z.req, z.resp = toFloat(req), toFloat(resp)
		z.params = e2eParams(cal, w, z.rateEff, req, resp)
		res.Points = append(res.Points, scorePoint(cal, &z))
		res.Tails.Points = append(res.Tails.Points, scoreTailPoint(cal, &z))
	}
	scoreTails(&res.Tails)
	for p := Predictor(0); p < NumPredictors; p++ {
		var sum float64
		for _, pt := range res.Points {
			if pt.Scored[p] {
				sum += pt.Err[p]
				res.ScoredN[p]++
			}
		}
		if res.ScoredN[p] > 0 {
			res.MeanErr[p] = sum / float64(res.ScoredN[p])
		}
	}
	res.Hypotheses = judge(res)
	return res
}

// scorePoint derives one workload's mean predictions and errors.
func scorePoint(cal Calib, z *zooRun) FidelityPoint {
	out := z.out
	pt := FidelityPoint{
		Workload:  z.w,
		RateEff:   z.rateEff,
		Truth:     out.Res.Latency.Mean(),
		Completed: out.Res.Latency.Count(),
	}

	// Predictor 1: the measured estimator (offline steady-state, byte
	// units — the paper's prototype methodology).
	if est := out.Est[tcpsim.UnitBytes]; est.Valid {
		pt.Pred[PredEstimator] = est.Latency
		pt.Scored[PredEstimator] = true
	}

	pt.An = analytic.E2EDelay(z.params)
	if pt.An.Stable {
		pt.Pred[PredAnalytic] = pt.An.Latency
		pt.Scored[PredAnalytic] = true
	}

	mReq, _ := analytic.Moments(z.req)
	mResp, _ := analytic.Moments(z.resp)
	pt.Pred[PredNaive] = analytic.NaiveByteDelay(mReq, mResp, float64(cal.Link.BitsPerSec), 2*cal.Link.Propagation)
	pt.Scored[PredNaive] = true

	for p := Predictor(0); p < NumPredictors; p++ {
		if pt.Scored[p] {
			pt.Err[p] = relErr(pt.Pred[p], pt.Truth)
		}
	}
	if h := out.HintAvgs; h.Valid {
		pt.Hints = core.Estimate{Latency: h.Latency, Throughput: h.Throughput, Valid: true}
		pt.HintErr = relErr(h.Latency, pt.Truth)
	}
	return pt
}

// e2eParams maps the calibration tables and a workload's size profile onto
// the tandem-queue model: per-request service-time samples for each stage
// the request path crosses, reduced to moments. The decomposition mirrors
// the simulated machines: one app CPU and one softirq CPU per host (each a
// single server handling both directions' work), one wire queue per
// direction, propagation as pure delay.
func e2eParams(cal Calib, w loadgen.ZooWorkload, rate float64, req, resp []int) analytic.E2EParams {
	mss := cal.TCP.MSS
	hdr := cal.TCP.HeaderBytes
	segs := func(b int) int { return (b + mss - 1) / mss }
	byteNS := 0.0
	if cal.Link.BitsPerSec > 0 {
		byteNS = 8e9 / float64(cal.Link.BitsPerSec)
	}

	sendFixed := float64(cal.Load.SendCosts.PerBatch + cal.Load.SendCosts.PerItem)
	if w.SyscallBatch > 1 {
		// Userspace pipelining amortizes the per-send(2) cost.
		sendFixed = float64(cal.Load.SendCosts.PerBatch)/float64(w.SyscallBatch) + float64(cal.Load.SendCosts.PerItem)
	}
	readFixed := float64(cal.Load.ReadCosts.PerBatch + cal.Load.PerResponse)

	n := len(req)
	clientApp := make([]float64, n)
	clientSoft := make([]float64, n)
	uplink := make([]float64, n)
	serverSoft := make([]float64, n)
	serverApp := make([]float64, n)
	downlink := make([]float64, n)
	for i := 0; i < n; i++ {
		rq, rs := req[i], resp[i]
		rqSegs, rsSegs := segs(rq), segs(rs)
		clientApp[i] = sendFixed + float64(rq)*cal.Load.SendCosts.PerByteNS +
			readFixed + float64(rs)*cal.Load.PerRespByteNS
		clientSoft[i] = float64(cal.ClientTx.Batch(rqSegs, rq) + cal.ClientRx.Batch(rsSegs, rs))
		uplink[i] = float64(rq+rqSegs*hdr) * byteNS
		serverSoft[i] = float64(cal.ServerRx.Batch(rqSegs, rq) + cal.ServerTx.Batch(rsSegs, rs))
		serverApp[i] = float64(cal.Server.ReadCosts.Batch(1, rq) + cal.Server.WriteCosts.Item(rs))
		downlink[i] = float64(rs+rsSegs*hdr) * byteNS
	}

	return analytic.E2EParams{
		RatePerSec: rate,
		Fixed:      2 * cal.Link.Propagation,
		Stages: []analytic.Stage{
			analytic.StageFromSamples("client-app", clientApp),
			analytic.StageFromSamples("client-soft", clientSoft),
			analytic.StageFromSamples("uplink", uplink),
			analytic.StageFromSamples("server-soft", serverSoft),
			analytic.StageFromSamples("server-app", serverApp),
			analytic.StageFromSamples("downlink", downlink),
		},
	}
}

func toFloat(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// modulated reports whether the workload's arrival process is shaped.
func modulated(w loadgen.ZooWorkload) bool { return w.RateShape != nil }

// judge computes the numbered-hypothesis verdicts from the scored points.
// Verdicts are pure functions of the data: re-running the harness after an
// estimator change re-litigates every one.
func judge(res *FidelityOut) []Hypothesis {
	pts := res.Points
	byName := func(name string) *FidelityPoint {
		for i := range pts {
			if pts[i].Workload.Name == name {
				return &pts[i]
			}
		}
		return nil
	}
	var hs []Hypothesis

	// H1 — the paper's bet, held to the exemplar's success metric, once
	// per estimate: the byte counters (H1a) and the hint tracker (H1b).
	h1 := res.ScoredN[PredEstimator] == len(pts) && res.MeanErr[PredEstimator] < 0.10
	hs = append(hs, Hypothesis{
		ID:      "H1a",
		Claim:   "measured estimator (byte counters) tracks sim ground truth within 10% workload-level mean E2E error across the zoo",
		Verdict: verdict(h1),
		Evidence: fmt.Sprintf("mean error %.1f%% over %d/%d workloads scored",
			100*res.MeanErr[PredEstimator], res.ScoredN[PredEstimator], len(pts)),
	})
	var hintSum float64
	hintN := 0
	for i := range pts {
		if pts[i].Hints.Valid {
			hintSum += pts[i].HintErr
			hintN++
		}
	}
	hs = append(hs, Hypothesis{
		ID:      "H1b",
		Claim:   "the create/complete hints track sim ground truth within 10% workload-level mean E2E error across the zoo (this checks the post-warmup window arithmetic, not an estimator: the hint queue holds each request for its whole life)",
		Verdict: verdict(hintN == len(pts) && hintSum/float64(max(hintN, 1)) < 0.10),
		Evidence: fmt.Sprintf("mean error %.1f%% over %d/%d workloads scored",
			100*hintSum/float64(max(hintN, 1)), hintN, len(pts)),
	})

	// H2 — the estimator must dominate the strawman everywhere, else the
	// queue counters add nothing over byte counting.
	h2, worst := true, ""
	for i := range pts {
		if !pts[i].Scored[PredEstimator] || pts[i].Err[PredEstimator] > pts[i].Err[PredNaive] {
			h2 = false
			worst = pts[i].Workload.Name
		}
	}
	ev := "estimator error <= naive error on every workload"
	if !h2 {
		ev = fmt.Sprintf("naive baseline beats the estimator on %q", worst)
	}
	hs = append(hs, Hypothesis{
		ID:      "H2",
		Claim:   "the estimator beats the naive byte baseline on every workload",
		Verdict: verdict(h2), Evidence: ev,
	})

	// H3 — where the closed form's Poisson assumption holds, it should be
	// a usable roofline (within 25%).
	var sum float64
	cnt, scored := 0, true
	for i := range pts {
		if modulated(pts[i].Workload) {
			continue
		}
		cnt++
		if !pts[i].Scored[PredAnalytic] {
			scored = false
			continue
		}
		sum += pts[i].Err[PredAnalytic]
	}
	h3 := scored && cnt > 0 && sum/float64(cnt) < 0.25
	hs = append(hs, Hypothesis{
		ID:      "H3",
		Claim:   "the analytic tandem model stays within 25% mean error on Poisson-arrival workloads",
		Verdict: verdict(h3),
		Evidence: fmt.Sprintf("mean error %.1f%% over %d unmodulated workloads",
			100*sum/float64(max(cnt, 1)), cnt),
	})

	// H4 — arrival modulation should hurt the a-priori model more than the
	// measuring estimator (which sees the queues the bursts fill).
	h4 := true
	var h4ev string
	for _, name := range []string{"bursty", "diurnal"} {
		if pt := byName(name); pt != nil {
			ok := pt.Scored[PredEstimator] &&
				(!pt.Scored[PredAnalytic] || pt.Err[PredAnalytic] > pt.Err[PredEstimator])
			h4 = h4 && ok
			h4ev += fmt.Sprintf("%s: estimator %.1f%% vs analytic %s; ", name,
				100*pt.Err[PredEstimator], fmtErrOrAbstain(pt, PredAnalytic))
		}
	}
	hs = append(hs, Hypothesis{
		ID:      "H4",
		Claim:   "modulated arrivals degrade the analytic model more than the measured estimator",
		Verdict: verdict(h4), Evidence: h4ev,
	})

	// H5 — sender corking is invisible to the closed form (it models no
	// hold timers) but not to the estimator, which measures the queues the
	// cork inflates.
	base, corked := byName("set-16k"), byName("set-16k-corked")
	h5 := false
	ev = "workloads missing"
	if base != nil && corked != nil {
		h5 = corked.Scored[PredEstimator] &&
			(!corked.Scored[PredAnalytic] || corked.Err[PredAnalytic] > base.Err[PredAnalytic]) &&
			(!corked.Scored[PredAnalytic] || corked.Err[PredEstimator] < corked.Err[PredAnalytic])
		ev = fmt.Sprintf("corked: estimator %.1f%% vs analytic %s (uncorked analytic %s)",
			100*corked.Err[PredEstimator], fmtErrOrAbstain(corked, PredAnalytic),
			fmtErrOrAbstain(base, PredAnalytic))
	}
	hs = append(hs, Hypothesis{
		ID:      "H5",
		Claim:   "static sender corking is the closed form's blind spot but not the estimator's",
		Verdict: verdict(h5), Evidence: ev,
	})
	return hs
}

func fmtErrOrAbstain(pt *FidelityPoint, p Predictor) string {
	if !pt.Scored[p] {
		return "abstained"
	}
	return fmt.Sprintf("%.1f%%", 100*pt.Err[p])
}

// WriteFidelity renders the FINDINGS-style report. The output is fully
// deterministic — fixed iteration order, no maps, no wall clock — and is
// golden-tested byte-for-byte.
func WriteFidelity(w io.Writer, f *FidelityOut) {
	fmt.Fprintf(w, "MODEL FIDELITY — predictors vs tcpsim ground truth (seed %d, %v runs, warmup %v)\n",
		f.Seed, f.Dur, f.Dur/5)
	fmt.Fprintf(w, "%-16s %9s %10s | %10s %7s | %10s %7s %5s | %10s %7s | %10s %7s\n",
		"workload", "rate", "truth",
		"estimator", "err", "analytic", "err", "rho", "naive", "err", "hints", "err")
	for i := range f.Points {
		pt := &f.Points[i]
		fmt.Fprintf(w, "%-16s %8.1fk %10v | %10s %7s | %10s %7s %5.2f | %10v %7s | %10s %7s\n",
			pt.Workload.Name, pt.RateEff/1000, pt.Truth.Round(time.Microsecond),
			fmtPred(pt.Scored[PredEstimator], pt.Pred[PredEstimator]), fmtErrCol(pt.Scored[PredEstimator], pt.Err[PredEstimator]),
			fmtPred(pt.Scored[PredAnalytic], pt.Pred[PredAnalytic]), fmtErrCol(pt.Scored[PredAnalytic], pt.Err[PredAnalytic]), pt.An.MaxRho,
			pt.Pred[PredNaive].Round(time.Microsecond), fmtErrCol(true, pt.Err[PredNaive]),
			fmtPred(pt.Hints.Valid, pt.Hints.Latency), fmtErrCol(pt.Hints.Valid, pt.HintErr))
	}
	fmt.Fprintf(w, "workload-level E2E mean error:")
	for p := Predictor(0); p < NumPredictors; p++ {
		fmt.Fprintf(w, "  %s %.1f%% (%d/%d)", p, 100*f.MeanErr[p], f.ScoredN[p], len(f.Points))
	}
	fmt.Fprintln(w)
	writeHypotheses(w, f.Hypotheses)
}

// fmtPred prints a prediction, or "-" when its predictor abstained.
func fmtPred(scored bool, d time.Duration) string {
	if !scored {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

// fmtErrCol prints a prediction's error, or "-" when it abstained.
func fmtErrCol(scored bool, err float64) string {
	if !scored {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*err)
}

// verdict names a hypothesis check's outcome.
func verdict(ok bool) string {
	if ok {
		return "CONFIRMED"
	}
	return "REFUTED"
}

// writeHypotheses renders the numbered claims closing both reports.
func writeHypotheses(w io.Writer, hs []Hypothesis) {
	fmt.Fprintln(w, "hypotheses:")
	for _, h := range hs {
		mark := "[-]"
		if h.Verdict == "CONFIRMED" {
			mark = "[+]"
		}
		fmt.Fprintf(w, "  %s %s: %s\n     claim: %s\n     evidence: %s\n", h.ID, mark, h.Verdict, h.Claim, h.Evidence)
	}
}

// WriteFidelityBreakdown renders the analytic model's per-stage view for
// each workload — where the closed form thinks the time goes, next to where
// it actually went.
func WriteFidelityBreakdown(w io.Writer, f *FidelityOut) {
	fmt.Fprintln(w, "analytic stage breakdown (service+wait per stage, mean):")
	for i := range f.Points {
		pt := &f.Points[i]
		fmt.Fprintf(w, "%-16s truth %10v | model", pt.Workload.Name, pt.Truth.Round(time.Microsecond))
		if !pt.An.Stable {
			fmt.Fprintf(w, " unstable (max rho %.2f)\n", pt.An.MaxRho)
			continue
		}
		fmt.Fprintf(w, " %10v |", pt.An.Latency.Round(time.Microsecond))
		for _, st := range pt.An.Stages {
			fmt.Fprintf(w, " %s %v", st.Name, (st.Service + st.Wait).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}
