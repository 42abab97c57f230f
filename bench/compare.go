package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// exactInSelfcheck are simulator results that are a pure function of binary
// and seed: two runs must agree to the last digit. allocTolerance bounds the
// allocation metrics, which the Go runtime's own background work perturbs.
var (
	exactInSelfcheck = []string{"sim_mean_us", "sim_p99_us", "est_err_pct", "est_p99_err_pct"}
	nearInSelfcheck  = []string{"alloc_bytes_per_req", "allocs_per_req"}
)

const allocTolerance = 0.02

// selfcheck runs the untraced suite twice on the same seed and fails, naming
// workload, metric and both values, when two runs of the same code disagree
// by more than the bound the benchmark fixed for that metric.
func selfcheck(spec *benchSpec, opt options) int {
	opt.trace = false
	bad := 0
	for _, name := range spec.workloadNames() {
		var runs [2]outcome
		for i := range runs {
			o, err := runWorkload(spec, name, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if o.Failed > 0 {
				fmt.Printf("FAIL %-16s correctness: %d of %d operations failed: %v\n", name, o.Failed, o.Attempted, o.Notes)
				bad++
			}
			runs[i] = o
		}
		lines, n := agreement(spec, name, runs[0], runs[1])
		for _, line := range lines {
			fmt.Println(line)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: two runs of the same code agree within the benchmark's bounds")
	return 0
}

func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// agreement compares two runs of one workload on one seed: one line per
// end-to-end metric, ok or FAIL, and a FAIL line for every pinned simulator
// result that did not repeat; bad counts the FAILs. setup_s is shown but not
// judged between two single runs: the contract bounds its median over many
// runs, and one process start on a busy host can double it.
func agreement(spec *benchSpec, name string, a, b outcome) (lines []string, bad int) {
	fail := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf("FAIL %-16s ", name)+fmt.Sprintf(format, args...))
		bad++
	}
	for _, m := range spec.EndToEnd {
		x, y := a.E2E[m.Name], b.E2E[m.Name]
		if d := relDiff(x, y); d > m.Bound && m.Name != "setup_s" {
			fail("%-20s %.6g vs %.6g: differ by %.1f%%, bound %.0f%%", m.Name, x, y, 100*d, 100*m.Bound)
		} else {
			lines = append(lines, fmt.Sprintf("ok   %-16s %-20s %14.6g %14.6g  differ %5.1f%% (bound %g%%)", name, m.Name, x, y, 100*d, 100*m.Bound))
		}
	}
	for _, n := range exactInSelfcheck {
		if x, y := a.Pinned[n], b.Pinned[n]; x != y {
			fail("%-20s %v vs %v: must repeat exactly", n, x, y)
		}
	}
	for _, n := range nearInSelfcheck {
		if x, y := a.Pinned[n], b.Pinned[n]; relDiff(x, y) > allocTolerance {
			fail("%-20s %v vs %v: differ by more than %.0f%%", n, x, y, 100*allocTolerance)
		}
	}
	return lines, bad
}

// compareFiles reads two archives written with -out (-runs 10 or more each,
// the two sides' runs alternated by the caller) and prints, for every
// workload and end-to-end metric, medians, quartiles, the share of pairs the
// second file wins and the verdict of the choosing-metrics rule.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readArchive(pathA)
	if err == nil {
		var b map[string][]outcome
		if b, err = readArchive(pathB); err == nil {
			return printComparison(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func readArchive(path string) (map[string][]outcome, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []outcome
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]outcome{}
	for _, o := range runs {
		by[o.Workload] = append(by[o.Workload], o)
	}
	return by, nil
}

func printComparison(spec *benchSpec, a, b map[string][]outcome) int {
	regressions := 0
	fmt.Printf("%-16s %-16s %12s %24s %12s %24s %8s %6s  %s\n", "workload", "metric", "median A", "quartiles A", "median B", "quartiles B", "change", "wins", "verdict")
	failed := func(os []outcome) (n int64) {
		for _, o := range os {
			n += o.Failed
		}
		return n
	}
	for _, w := range spec.workloadNames() {
		if len(a[w]) == 0 || len(b[w]) == 0 {
			continue
		}
		// A gain does not count when more operations fail than at the parent.
		moreFailures := failed(b[w]) > failed(a[w])
		for _, m := range spec.EndToEnd {
			col := func(os []outcome) []float64 {
				var vs []float64
				for _, o := range os {
					vs = append(vs, o.E2E[m.Name])
				}
				return vs
			}
			v := compareRuns(col(a[w]), col(b[w]), m.lowerIsBetter(), m.Bound)
			word := "unchanged"
			switch {
			case v.Regressed:
				word = "REGRESSION"
				regressions++
			case v.Gain && moreFailures:
				word = fmt.Sprintf("no gain: B failed %d operations, A %d", failed(b[w]), failed(a[w]))
			case v.Gain:
				word = "gain"
			case v.Unresolved:
				word = "unresolved (spread wider than bound)"
			}
			fmt.Printf("%-16s %-16s %12.6g %24s %12.6g %24s %+7.1f%% %5.0f%%  %s\n", w, m.Name,
				v.MedianA, fmt.Sprintf("[%.6g, %.6g]", v.Q1A, v.Q3A), v.MedianB, fmt.Sprintf("[%.6g, %.6g]", v.Q1B, v.Q3B),
				-100*v.Change, 100*v.WinShare, word)
		}
	}
	fmt.Println("change is B against A with better as positive; wins is the share of decided pairs B won")
	if regressions > 0 {
		return 1
	}
	return 0
}
