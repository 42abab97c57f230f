package figures

import (
	"fmt"
	"io"
	"math"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/tcpsim"
)

// Fig4Point is one offered-load point of the Figure 4 sweep, in both
// batching modes.
type Fig4Point struct {
	Rate    float64
	Off, On Fig4Cell
}

// Fig4Cell is one (rate, mode) measurement.
type Fig4Cell struct {
	Measured time.Duration
	Achieved float64
	// SetMeasured and GetMeasured split latency by request kind: on the
	// Figure 4b mix, GETs' 16 KiB responses fill segments immediately and
	// largely escape Nagle holds, which is what skews the byte-weighted
	// estimate (§4).
	SetMeasured, GetMeasured time.Duration
	// Est holds the offline byte/packet/send-unit estimates from the
	// collected counters (the paper's prototype methodology).
	Est [tcpsim.NumUnits]core.Estimate
}

// Fig4Out is a full Figure 4 sweep plus its derived headline numbers.
type Fig4Out struct {
	Name   string
	SLO    time.Duration
	Points []Fig4Point

	// MeasuredCutoff and EstimatedCutoff are the lowest swept rates at
	// which batching wins by measurement and by byte-unit estimate
	// (the paper's vertical cutoff lines); 0 when none.
	MeasuredCutoff  float64
	EstimatedCutoff float64

	// OffSLOMax and OnSLOMax are the highest swept rates still meeting
	// the SLO in each mode; Extension is their ratio (paper: 1.93×).
	OffSLOMax, OnSLOMax float64
	Extension           float64

	// BoundaryRate is the interpolated offered load at which the
	// batching-off curve crosses the SLO (the paper's 37.5 kRPS), and
	// LatencyGain is SLO / on-mode-latency interpolated at that rate —
	// the paper's "2.80× at 37.5 kRPS" comparison.
	BoundaryRate float64
	LatencyGain  float64
}

// DefaultFig4Rates is the sweep grid.
func DefaultFig4Rates() []float64 {
	rates := make([]float64, 0, 18)
	for r := 5000.0; r <= 90000; r += 5000 {
		rates = append(rates, r)
	}
	return rates
}

// Fig4a runs the homogeneous 16 KiB SET sweep of Figure 4a.
func Fig4a(cal Calib, rates []float64, dur time.Duration, seed int64) *Fig4Out {
	return fig4(cal, rates, dur, seed, "Figure 4a (100% SET)", nil, false)
}

// Fig4b runs the 95:5 SET:GET mix of Figure 4b, whose 16 KiB GET responses
// break the byte-based approximation.
func Fig4b(cal Calib, rates []float64, dur time.Duration, seed int64) *Fig4Out {
	wl := loadgen.MixedWorkload(cal.KeySize, cal.ValSize, 950)
	return fig4(cal, rates, dur, seed, "Figure 4b (95% SET / 5% GET)", wl, true)
}

func fig4(cal Calib, rates []float64, dur time.Duration, seed int64, name string, wl loadgen.RequestMaker, preload bool) *Fig4Out {
	out := &Fig4Out{Name: name, SLO: cal.SLO}
	var specs []RunSpec
	for _, rate := range rates {
		for _, on := range []bool{false, true} {
			specs = append(specs, RunSpec{
				Calib:       cal,
				Seed:        seed,
				Rate:        rate,
				Duration:    dur,
				BatchOn:     on,
				Workload:    wl,
				PreloadKeys: preload,
			})
		}
	}
	outs := runAll(specs)
	for ri, rate := range rates {
		p := Fig4Point{Rate: rate}
		for mi, on := range []bool{false, true} {
			r := outs[2*ri+mi]
			cell := Fig4Cell{
				Measured: r.Res.Latency.Mean(),
				Achieved: r.Res.AchievedRate,
				Est:      r.Est,
			}
			if h := r.Res.ByKind[loadgen.KindSet]; h != nil {
				cell.SetMeasured = h.Mean()
			}
			if h := r.Res.ByKind[loadgen.KindGet]; h != nil {
				cell.GetMeasured = h.Mean()
			}
			if on {
				p.On = cell
			} else {
				p.Off = cell
			}
		}
		out.Points = append(out.Points, p)
	}
	out.derive()
	return out
}

// derive computes the cutoff lines and headline ratios from the sweep.
func (f *Fig4Out) derive() {
	for _, p := range f.Points {
		if f.MeasuredCutoff == 0 && p.On.Measured < p.Off.Measured {
			f.MeasuredCutoff = p.Rate
		}
		be := p.On.Est[tcpsim.UnitBytes]
		bo := p.Off.Est[tcpsim.UnitBytes]
		if f.EstimatedCutoff == 0 && be.Valid && bo.Valid && be.Latency < bo.Latency {
			f.EstimatedCutoff = p.Rate
		}
		if p.Off.Measured <= f.SLO && p.Rate > f.OffSLOMax {
			f.OffSLOMax = p.Rate
		}
		if p.On.Measured <= f.SLO && p.Rate > f.OnSLOMax {
			f.OnSLOMax = p.Rate
		}
	}
	if f.OffSLOMax > 0 {
		f.Extension = f.OnSLOMax / f.OffSLOMax
	}

	// Interpolate the exact rate where the off curve crosses the SLO,
	// then the on curve's latency at that rate.
	for i := 1; i < len(f.Points); i++ {
		lo, hi := f.Points[i-1], f.Points[i]
		if lo.Off.Measured > f.SLO || hi.Off.Measured <= f.SLO {
			continue
		}
		frac := float64(f.SLO-lo.Off.Measured) / float64(hi.Off.Measured-lo.Off.Measured)
		f.BoundaryRate = lo.Rate + frac*(hi.Rate-lo.Rate)
		onAt := float64(lo.On.Measured) + frac*float64(hi.On.Measured-lo.On.Measured)
		if onAt > 0 {
			f.LatencyGain = float64(f.SLO) / onAt
		}
		break
	}
}

// CutoffsCoincide reports whether the measured and estimated cutoff lines
// fall within one sweep step of each other — the paper's accuracy criterion
// for Figure 4a (and its failure criterion for 4b).
func (f *Fig4Out) CutoffsCoincide(step float64) bool {
	if f.MeasuredCutoff == 0 || f.EstimatedCutoff == 0 {
		return false
	}
	return math.Abs(f.MeasuredCutoff-f.EstimatedCutoff) <= step
}

// WriteFig4 renders the sweep table and headline numbers.
func WriteFig4(w io.Writer, f *Fig4Out) {
	fmt.Fprintf(w, "%s — mean latency vs offered load (SLO %v)\n", f.Name, f.SLO)
	fmt.Fprintf(w, "%8s | %12s %12s | %12s %12s | winner\n",
		"kRPS", "meas off", "est(B) off", "meas on", "est(B) on")
	for _, p := range f.Points {
		winner := "off"
		if p.On.Measured < p.Off.Measured {
			winner = "on"
		}
		fmt.Fprintf(w, "%8.1f | %12v %12v | %12v %12v | %s\n",
			p.Rate/1000,
			p.Off.Measured.Round(time.Microsecond), fmtEst(p.Off.Est[tcpsim.UnitBytes]),
			p.On.Measured.Round(time.Microsecond), fmtEst(p.On.Est[tcpsim.UnitBytes]),
			winner)
	}
	fmt.Fprintf(w, "measured cutoff: %.1f kRPS, estimated cutoff: %.1f kRPS\n",
		f.MeasuredCutoff/1000, f.EstimatedCutoff/1000)
	fmt.Fprintf(w, "SLO range: off <= %.1f kRPS, on <= %.1f kRPS (extension %.2fx; paper: 1.93x)\n",
		f.OffSLOMax/1000, f.OnSLOMax/1000, f.Extension)
	fmt.Fprintf(w, "at the off-mode SLO boundary (%.1f kRPS): batching latency %.2fx lower (paper: 2.80x at 37.5 kRPS)\n",
		f.BoundaryRate/1000, f.LatencyGain)
}

func fmtEst(e core.Estimate) string {
	if !e.Valid {
		return "-"
	}
	return e.Latency.Round(time.Microsecond).String()
}
