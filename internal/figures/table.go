package figures

import (
	"io"
	"time"
)

// Params are the knobs a figure reads: the calibration, the duration of
// each run and the seed, plus three that only some figures use.
type Params struct {
	Calib Calib
	Dur   time.Duration
	Seed  int64
	// Rates overrides the offered loads of the load sweeps (4a, 4b,
	// toggle, hints, aimd); nil keeps each figure's own grid.
	Rates []float64
	// SyscallBatch is the requests per send(2) of the hints figure.
	SyscallBatch int
	// FaultPlan names the faults.Plan of the faults figure.
	FaultPlan string
}

// rates returns p.Rates, or def when no override was given.
func (p Params) rates(def ...float64) []float64 {
	if p.Rates != nil {
		return p.Rates
	}
	return def
}

// Figure is one table the e2efig command renders, named as its -fig value.
// EXPERIMENTS.md's claims ledger gives each one a row: the paper claim it
// backs and the test that pins it.
type Figure struct {
	Name   string
	Render func(w io.Writer, p Params)
}

// Figures lists every figure, in the order `e2efig -fig all` renders them.
func Figures() []Figure {
	return []Figure{
		{"1", func(w io.Writer, p Params) { WriteFig1(w, Fig1()) }},
		{"2", func(w io.Writer, p Params) { WriteFig2(w, Fig2(p.Calib, p.Dur, p.Seed)) }},
		{"4a", func(w io.Writer, p Params) {
			WriteFig4(w, Fig4a(p.Calib, p.rates(DefaultFig4Rates()...), p.Dur, p.Seed))
		}},
		{"4b", func(w io.Writer, p Params) {
			WriteFig4(w, Fig4b(p.Calib, p.rates(DefaultFig4Rates()...), p.Dur, p.Seed))
		}},
		{"toggle", func(w io.Writer, p Params) {
			WriteToggle(w, Toggle(p.Calib, p.rates(10000, 30000, 45000, 60000), p.Dur, p.Seed))
		}},
		{"hints", func(w io.Writer, p Params) {
			WriteHints(w, Hints(p.Calib, p.rates(10000, 30000), p.Dur, p.Seed, p.SyscallBatch))
		}},
		{"aimd", func(w io.Writer, p Params) {
			WriteAIMD(w, AIMD(p.Calib, p.rates(10000, 60000), p.Dur, p.Seed))
		}},
		{"tick", func(w io.Writer, p Params) {
			ivs := []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
			WriteTickAblation(w, TickAblation(p.Calib, 50000, ivs, p.Dur, p.Seed))
		}},
		{"exchange", func(w io.Writer, p Params) {
			ivs := []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}
			WriteExchangeAblation(w, ExchangeAblation(p.Calib, 35000, ivs, p.Dur, p.Seed))
		}},
		{"multiconn", func(w io.Writer, p Params) {
			WriteMultiConn(w, MultiConn(p.Calib, 4, 50000, p.Dur, p.Seed))
		}},
		{"cscan", func(w io.Writer, p Params) {
			WriteCScan(w, CScan(p.Calib, []float64{1, 1.25, 1.5, 1.75, 2, 2.5}, p.Dur, p.Seed))
		}},
		{"bandits", func(w io.Writer, p Params) {
			WritePolicyCompare(w, PolicyCompare(p.Calib, []float64{10000, 45000, 60000}, p.Dur, p.Seed))
		}},
		{"loss", func(w io.Writer, p Params) {
			WriteLoss(w, LossRobustness(p.Calib, 20000, []float64{0, 0.001, 0.01, 0.05}, p.Dur, p.Seed))
		}},
		{"faults", func(w io.Writer, p Params) {
			WriteFaultSweep(w, FaultSweep(p.Calib, 20000, []float64{0, 0.01, 0.05}, p.FaultPlan, p.Dur, p.Seed))
		}},
	}
}
