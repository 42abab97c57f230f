package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ: the unit of the CPU times in /proc/<pid>/stat. Linux
// fixes it at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name, field 2, may hold spaces and
// parentheses, so the fields are counted from the last ')'.
func parseProcStat(s string) (user, sys time.Duration, err error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", s)
	}
	f := strings.Fields(s[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: utime %q stime %q are not numbers", f[11], f[12])
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// parseSteal extracts one CPU's steal time, field 9 of its "cpuN" line in the
// text of /proc/stat: the time the hypervisor ran something else while this
// guest had work for that CPU. A kernel older than the field reads as none.
func parseSteal(stat string, cpu int) (time.Duration, error) {
	name := "cpu" + strconv.Itoa(cpu)
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != name {
			continue
		}
		if len(f) < 9 {
			return 0, nil
		}
		ticks, err := strconv.ParseUint(f[8], 10, 63)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: %s steal %q is not a number", name, f[8])
		}
		return time.Duration(ticks) * clockTick, nil
	}
	return 0, fmt.Errorf("/proc/stat: no %s line", name)
}

// parseSchedstat extracts the on-CPU nanoseconds, the first field of
// /proc/<pid>/task/<tid>/schedstat.
func parseSchedstat(s string) (time.Duration, error) {
	f := strings.Fields(s)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %q has %d fields, want 3", s, len(f))
	}
	ns, err := strconv.ParseUint(f[0], 10, 63)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// splitUserSys reports a process's CPU per request, measured precisely, as
// user and system parts in the ratio the tick-sampled counters saw over the
// whole window.
func splitUserSys(cpuUsPerReq float64, user, sys time.Duration, into metrics) {
	share := 0.5
	if user+sys > 0 {
		share = float64(user) / float64(user+sys)
	}
	into["kvserver.user_us_per_req"] = cpuUsPerReq * share
	into["kvserver.sys_us_per_req"] = cpuUsPerReq * (1 - share)
}

func srvCPU(m metrics) float64 { return m["kvserver.user_us_per_req"] + m["kvserver.sys_us_per_req"] }

// parsePromText reads Prometheus text exposition into series → value, the
// series written as in the text (name plus its label set, if any).
func parsePromText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// memStats is the part of runtime.MemStats that the footer of
// /debug/pprof/allocs?debug=1 prints and the benchmark uses.
type memStats struct {
	TotalAlloc, Mallocs uint64
	NumGC               uint64
	MaxRSS              uint64
	// PauseMeanNs is the mean of the recent GC pauses the footer lists
	// (a ring of the last 256); there is no total in the footer.
	PauseMeanNs float64
}

var memStatLine = regexp.MustCompile(`^# (\w+) = (.*)$`)

// parseMemStats reads the "# runtime.MemStats" footer of a debug=1 heap or
// allocs profile.
func parseMemStats(r io.Reader) (memStats, error) {
	var m memStats
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		g := memStatLine.FindStringSubmatch(sc.Text())
		if g == nil {
			continue
		}
		var dst *uint64
		switch g[1] {
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "Mallocs":
			dst = &m.Mallocs
		case "NumGC":
			dst = &m.NumGC
		case "MaxRSS":
			dst = &m.MaxRSS
		case "PauseNs":
			var sum float64
			var n int
			for _, f := range strings.Fields(strings.Trim(g[2], "[]")) {
				if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0 {
					sum += v
					n++
				}
			}
			if n > 0 {
				m.PauseMeanNs = sum / float64(n)
			}
			continue
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(g[2]), 10, 64)
		if err != nil {
			return m, fmt.Errorf("memstats: %s = %q: %w", g[1], g[2], err)
		}
		*dst = v
		seen[g[1]] = true
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	for _, want := range []string{"TotalAlloc", "Mallocs", "NumGC"} {
		if !seen[want] {
			return m, fmt.Errorf("memstats: footer has no %s line", want)
		}
	}
	return m, nil
}

// kvloadReport is kvload's closing report.
type kvloadReport struct {
	Sent                int64
	Mean, P50, P99, Max time.Duration
	EstimateTicks       int64
	Switches            int64 // of the toggler; 0 without -toggle
}

var kvloadSwitches = regexp.MustCompile(`^toggler: \d+ decisions, (\d+) switches, `)

var kvloadSent = regexp.MustCompile(`^sent (\d+) requests; measured mean=(\S+) p50=(\S+) p99=(\S+) max=(\S+) \((\d+) estimate ticks\)$`)

// parseKvloadReport finds the report among kvload's output lines.
func parseKvloadReport(lines []string) (kvloadReport, error) {
	for _, line := range lines {
		g := kvloadSent.FindStringSubmatch(line)
		if g == nil {
			continue
		}
		var rep kvloadReport
		rep.Sent, _ = strconv.ParseInt(g[1], 10, 64)          // \d+ cannot fail to parse
		rep.EstimateTicks, _ = strconv.ParseInt(g[6], 10, 64) // likewise
		for i, dst := range []*time.Duration{&rep.Mean, &rep.P50, &rep.P99, &rep.Max} {
			d, err := time.ParseDuration(g[2+i])
			if err != nil {
				return rep, fmt.Errorf("kvload report %q: %w", line, err)
			}
			*dst = d
		}
		for _, line := range lines {
			if g := kvloadSwitches.FindStringSubmatch(line); g != nil {
				rep.Switches, _ = strconv.ParseInt(g[1], 10, 64) // \d+ cannot fail to parse
			}
		}
		return rep, nil
	}
	return kvloadReport{}, fmt.Errorf("kvload printed no report line; output was %q", lines)
}

var httpClient = &http.Client{Timeout: 20 * time.Second}

// httpGet fetches one of a child's debug endpoints.
func httpGet(addr, path string, parse func(io.Reader) error) error {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return parse(resp.Body)
}

func scrapeMetrics(addr string) (map[string]float64, error) {
	var m map[string]float64
	err := httpGet(addr, "/metrics", func(r io.Reader) (err error) {
		m, err = parsePromText(r)
		return err
	})
	return m, err
}

func scrapeMemStats(addr string) (memStats, error) {
	var m memStats
	err := httpGet(addr, "/debug/pprof/allocs?debug=1", func(r io.Reader) (err error) {
		m, err = parseMemStats(r)
		return err
	})
	return m, err
}
