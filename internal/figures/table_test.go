package figures

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/tcpsim"
)

// fakeRun is a run output with a measured mean of 100 µs whose estimates
// (every unit and the hints) are est.
func fakeRun(est core.Estimate) *RunOut {
	out := &RunOut{Res: &loadgen.Result{}}
	out.Res.Latency.Record(100 * time.Microsecond)
	for u := range out.Est {
		out.Est[u] = est
	}
	out.HintAvgs.Latency, out.HintAvgs.Valid = est.Latency, est.Valid
	return out
}

// fill gives every arm of every row of s the output of run, without running
// the simulator.
func fill(s *Sweep, run func(row int) *RunOut) *Sweep {
	for i := range s.Rows {
		s.Rows[i].Runs = make([]*RunOut, len(s.Rows[i].Specs))
		for a := range s.Rows[i].Runs {
			s.Rows[i].Runs[a] = run(i)
		}
	}
	return s
}

// TestAbstainedEstimatePrintsDash renders the three figures with an
// estimate column over a row whose estimates abstain: each estimate cell
// prints "-" and its error cell (where the table has one) prints "-" too,
// never a 0s latency or a 100% error. The row with valid estimates still
// prints them.
func TestAbstainedEstimatePrintsDash(t *testing.T) {
	valid := core.Estimate{Latency: 80 * time.Microsecond, Valid: true}
	abstained := core.Estimate{Latency: 3 * time.Microsecond}
	p := Params{Calib: DefaultCalib(), Dur: 10 * time.Millisecond, Seed: 1, Rates: []float64{10000}, SyscallBatch: 4, FaultPlan: "none"}
	for name, s := range map[string]*Sweep{
		"hints":  hintsSweep(p),
		"loss":   loss(p, 20000, []float64{0, 0.01}),
		"faults": faultSweep(p, 20000, []float64{0, 0.01}),
	} {
		fill(s, func(row int) *RunOut {
			if row == 0 {
				return fakeRun(abstained)
			}
			return fakeRun(valid)
		})
		var buf bytes.Buffer
		s.Write(&buf)
		lines := strings.Split(buf.String(), "\n")
		bad, good := lines[2], lines[3]
		if strings.Contains(bad, "3µs") || strings.Contains(bad, " 0s") || strings.Contains(bad, "97%") || strings.Contains(bad, "100%") {
			t.Errorf("%s: abstained row prints an estimate or its error:\n%s", name, bad)
		}
		if got, want := dashes(bad), 1; got < want {
			t.Errorf("%s: abstained row has %d dashes, want at least %d:\n%s", name, got, want, bad)
		}
		if !strings.Contains(good, "80µs") || dashes(good) != 0 {
			t.Errorf("%s: valid row lost its estimate:\n%s", name, good)
		}
	}

	// The hints table has four estimate columns, each with an error.
	s := fill(hintsSweep(p), func(int) *RunOut { return fakeRun(abstained) })
	var buf bytes.Buffer
	s.Write(&buf)
	if row := strings.Split(buf.String(), "\n")[2]; dashes(row) != 2*(tcpsim.NumUnits+1) {
		t.Errorf("hints: want a dash in every estimate and error cell:\n%s", row)
	}
}

// dashes counts the cells of a table line that print "-".
func dashes(line string) int {
	n := 0
	for _, f := range strings.Fields(line) {
		if f == "-" {
			n++
		}
	}
	return n
}

// TestLookupFailsOnMissingName is the by-name reading tests rely on: a
// header the sweep lacks, a header two columns share, a cell of another
// type and a stat the sweep does not print are errors, not zeros.
func TestLookupFailsOnMissingName(t *testing.T) {
	p := Params{Calib: DefaultCalib(), Dur: 10 * time.Millisecond, Seed: 1, Rates: []float64{10000}}
	s := fill(fig4a(p), func(int) *RunOut { return fakeRun(core.Estimate{Latency: time.Microsecond, Valid: true}) })

	if v, err := Col[time.Duration](s, "meas off"); err != nil || len(v) != 1 || v[0] != 100*time.Microsecond {
		t.Fatalf("Col(meas off) = %v, %v", v, err)
	}
	if v, err := Col[time.Duration](s, "meas of"); err == nil {
		t.Errorf("misspelt column read %v without error", v)
	}
	if v, err := Col[float64](s, "meas off"); err == nil {
		t.Errorf("duration column read as float64 %v without error", v)
	}
	if _, err := Stat[float64](s, "extension"); err != nil {
		t.Errorf("Stat(extension): %v", err)
	}
	if v, err := Stat[float64](s, "extention"); err == nil {
		t.Errorf("misspelt stat read %v without error", v)
	}

	b := fill(bandits(p, []float64{10000}), func(int) *RunOut { return fakeRun(core.Estimate{}) })
	if v, err := Col[uint64](b, "switches"); err == nil {
		t.Errorf("ambiguous column read %v without error", v)
	}
}

// TestHeadFormat pins how a cell format sizes its header: the verb's width
// plus its literal suffix, flags kept.
func TestHeadFormat(t *testing.T) {
	for format, want := range map[string]string{
		"%8.2fc":  "%9s",
		"%6.0f%%": "%7s",
		"%-11s":   "%-11s",
		"%12v":    "%12s",
		"%s":      "%s",
		"%7.1f%%": "%8s",
	} {
		if got := headFormat(format); got != want {
			t.Errorf("headFormat(%q) = %q, want %q", format, got, want)
		}
	}
}
