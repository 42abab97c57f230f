package figures

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"e2ebatch/internal/core"
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

// spec is the run every figure starts from: p's calibration, seed and
// duration, at rate.
func (p Params) spec(rate float64) RunSpec {
	return RunSpec{Calib: p.Calib, Seed: p.Seed, Duration: p.Dur, Rate: rate}
}

// Figure is one table the e2efig command renders, named as its -fig value.
// EXPERIMENTS.md's claims ledger gives each one a row: the paper claim it
// backs and the test that pins it.
type Figure struct {
	Name string
	// sweep builds the figure's runs and columns; nil for Figure 1, the
	// closed form.
	sweep func(p Params) *Sweep
}

// Sweep runs the figure and returns its table, or nil for Figure 1.
func (f Figure) Sweep(p Params) *Sweep {
	if f.sweep == nil {
		return nil
	}
	return f.sweep(p).run()
}

// Render runs the figure and writes its table.
func (f Figure) Render(w io.Writer, p Params) {
	if f.sweep == nil {
		WriteFig1(w, Fig1())
		return
	}
	f.Sweep(p).Write(w)
}

// Figures lists every figure, in the order `e2efig -fig all` renders them.
func Figures() []Figure {
	return []Figure{
		{"1", nil},
		{"2", fig2},
		{"4a", fig4a},
		{"4b", fig4b},
		{"toggle", toggle},
		{"hints", hintsSweep},
		{"aimd", aimdSweep},
		{"tick", func(p Params) *Sweep {
			return tick(p, 50000, []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond})
		}},
		{"exchange", func(p Params) *Sweep {
			return exchange(p, 35000, []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond})
		}},
		{"multiconn", func(p Params) *Sweep { return multiConn(p, 4, 50000) }},
		{"cscan", func(p Params) *Sweep { return cscan(p, []float64{1, 1.25, 1.5, 1.75, 2, 2.5}) }},
		{"bandits", func(p Params) *Sweep { return bandits(p, []float64{10000, 45000, 60000}) }},
		{"loss", func(p Params) *Sweep { return loss(p, 20000, []float64{0, 0.001, 0.01, 0.05}) }},
		{"faults", func(p Params) *Sweep { return faultSweep(p, 20000, []float64{0, 0.01, 0.05}) }},
	}
}

// Lookup returns the figure named name.
func Lookup(name string) (Figure, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// Sweep is one simulated figure, laid out as SNIPPETS.md Snippet 3's
// experiment design: every run shares the controlled variables, each row is
// one value of the one varied variable, and a row's arms are the variants
// compared at that value (batching off and on, static and dynamic, ε-greedy
// and UCB1). Columns read each row's runs; the title and the lines under the
// table are computed from all of them.
type Sweep struct {
	// Base holds runs that the title or the stats read and no row shows
	// (the tick figure's static batch-on baseline, both passes of the
	// multi-connection figure).
	Base Row
	Rows []Row

	title func(s *Sweep) string
	// cols are the table's column groups, printed " | "-separated.
	cols [][]column
	foot func(s *Sweep) []stat
	// exec runs one spec; nil is Run.
	exec func(RunSpec) *RunOut
}

// Row is one value of a sweep's varied variable: the spec of each arm and,
// once the sweep has run, each arm's output.
type Row struct {
	Specs []RunSpec
	Runs  []*RunOut
}

// A column is one cell of every row: a header, a format with one verb and
// an optional literal suffix ("%8.2fc", "%6.0f%%"), and the value. A
// time.Duration prints rounded to the microsecond. A core.Estimate prints
// its latency, or "-" when it abstained, as does a nil value: an abstention
// is never printed as a measurement.
type column struct {
	head, format string
	val          func(r Row) any
}

// A stat is one value derived across a sweep's rows, printed under the
// table as fmt.Sprintf(format, v) (formats carry their own line breaks) and
// read back by name with Stat.
type stat struct {
	name, format string
	v            any
}

// row builds a row from its arms' specs.
func row(arms ...RunSpec) Row { return Row{Specs: arms} }

// run executes every spec of s on the sweep worker pool and returns s.
func (s *Sweep) run() *Sweep {
	exec := s.exec
	if exec == nil {
		exec = Run
	}
	rows := []*Row{&s.Base}
	for i := range s.Rows {
		rows = append(rows, &s.Rows[i])
	}
	var specs []RunSpec
	for _, r := range rows {
		specs = append(specs, r.Specs...)
	}
	outs := fanOut(specs, Parallelism(), exec)
	for _, r := range rows {
		r.Runs, outs = outs[:len(r.Specs)], outs[len(r.Specs):]
	}
	return s
}

// Write renders the title, the header, one line per row and the stats.
func (s *Sweep) Write(w io.Writer) {
	fmt.Fprintln(w, s.title(s))
	if len(s.cols) > 0 {
		s.line(w, func(c column) string { return fmt.Sprintf(headFormat(c.format), c.head) })
		for _, r := range s.Rows {
			s.line(w, func(c column) string { return cell(c.format, c.val(r)) })
		}
	}
	if s.foot != nil {
		for _, st := range s.foot(s) {
			v := shown(st.v)
			if v == nil {
				v = "-"
			}
			fmt.Fprintf(w, st.format, v)
		}
	}
}

// line writes one table line: the cells of a group space-separated, the
// groups " | "-separated.
func (s *Sweep) line(w io.Writer, text func(c column) string) {
	groups := make([]string, len(s.cols))
	for i, g := range s.cols {
		cells := make([]string, len(g))
		for j, c := range g {
			cells[j] = text(c)
		}
		groups[i] = strings.Join(cells, " ")
	}
	fmt.Fprintln(w, strings.Join(groups, " | "))
}

// shown is v as a table prints it: durations at microsecond resolution, an
// estimate as its latency, and nil for an abstained estimate.
func shown(v any) any {
	switch x := v.(type) {
	case time.Duration:
		return x.Round(time.Microsecond)
	case core.Estimate:
		if !x.Valid {
			return nil
		}
		return x.Latency.Round(time.Microsecond)
	}
	return v
}

// cell formats v, or "-" at the column's width when it abstained.
func cell(format string, v any) string {
	if v = shown(v); v == nil {
		return fmt.Sprintf(headFormat(format), "-")
	}
	return fmt.Sprintf(format, v)
}

// headFormat is the %s verb as wide as a cell of format: the verb's flags,
// its width plus the printed width of its literal suffix ("%8.2fc" gives
// "%9s", "%6.0f%%" gives "%7s", "%s" stays "%s").
func headFormat(format string) string {
	rest := strings.TrimLeft(format[1:], "-+# ")
	flags := format[1 : len(format)-len(rest)]
	digits := len(rest) - len(strings.TrimLeft(rest, "0123456789"))
	if digits == 0 {
		return "%" + flags + "s"
	}
	width, _ := strconv.Atoi(rest[:digits])
	rest = strings.TrimLeft(rest[digits:], ".0123456789")
	width += len(strings.ReplaceAll(rest[1:], "%%", "%"))
	return "%" + flags + strconv.Itoa(width) + "s"
}

// Col returns the cells of the column headed name, one per row, as T. It
// fails when no column or more than one has that header, or when a cell is
// not a T, so a misspelt name reads as an error rather than as zeros.
func Col[T any](s *Sweep, name string) ([]T, error) {
	var found []column
	for _, g := range s.cols {
		for _, c := range g {
			if c.head == name {
				found = append(found, c)
			}
		}
	}
	if len(found) != 1 {
		return nil, fmt.Errorf("figures: %d columns headed %q", len(found), name)
	}
	out := make([]T, len(s.Rows))
	for i, r := range s.Rows {
		v, ok := found[0].val(r).(T)
		if !ok {
			return nil, fmt.Errorf("figures: column %q row %d holds %T", name, i, found[0].val(r))
		}
		out[i] = v
	}
	return out, nil
}

// Stat returns the value named name under the table, as T. It fails when
// the sweep prints no such value or it is not a T.
func Stat[T any](s *Sweep, name string) (T, error) {
	var zero T
	if s.foot != nil {
		for _, st := range s.foot(s) {
			if st.name == name {
				v, ok := st.v.(T)
				if !ok {
					return zero, fmt.Errorf("figures: stat %q holds %T", name, st.v)
				}
				return v, nil
			}
		}
	}
	return zero, fmt.Errorf("figures: no stat %q", name)
}
