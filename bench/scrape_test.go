package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	const stat = "4242 (kv (server) x) S 1 4242 4242 0 -1 4194560 1024 0 0 0 1234 567 0 0 20 0 5 0 100 200 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	user, sys, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if user != 12340*time.Millisecond || sys != 5670*time.Millisecond {
		t.Errorf("utime, stime = %v, %v; want 12.34s, 5.67s", user, sys)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b 0"} {
		if _, _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseSteal(t *testing.T) {
	const stat = "cpu  1375287 0 587719 2256043 9351 0 234919 55516 0 0\n" +
		"cpu0 766634 0 299283 1031435 3164 0 120036 28816 0 0\n" +
		"cpu1 608652 0 288435 1224607 6186 0 114883 26700 0 0\n" +
		"cpu10 1 2 3 4 5 6 7\nintr 0\n"
	for cpu, want := range map[int]time.Duration{0: 288160 * time.Millisecond, 1: 267 * time.Second, 10: 0} {
		got, err := parseSteal(stat, cpu)
		if err != nil || got != want {
			t.Errorf("parseSteal(cpu %d) = %v, %v; want %v", cpu, got, err, want)
		}
	}
	if _, err := parseSteal(stat, 2); err == nil {
		t.Error("parseSteal found a CPU that /proc/stat does not list")
	}
	if _, err := parseSteal("cpu0 1 2 3 4 5 6 7 x 0 0\n", 0); err == nil {
		t.Error("parseSteal accepted a steal field that is not a number")
	}
}

func TestParsePromText(t *testing.T) {
	const text = `# HELP e2e_server_requests_sum Requests served, all shards.
# TYPE e2e_server_requests_sum gauge
e2e_server_requests_sum 123456
e2e_request_latency_seconds{quantile="0.5"} 7.5e-07
e2e_request_latency_seconds{quantile="0.99"} 2.784e-06
e2e_request_latency_seconds_sum 0.091
e2e_request_latency_seconds_count 123456
e2e_server_conns{shard="1"} 2
`
	m, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m[servedSeries] != 123456 || m[execFamily+"_count"] != 123456 || m[`e2e_server_conns{shard="1"}`] != 2 {
		t.Errorf("parsed %v", m)
	}
	if got := promQuantile(m, execFamily, "0.99"); got != 2.784e-06 {
		t.Errorf("p99 = %v, want 2.784e-06", got)
	}
	if got := promQuantile(m, execFamily, "0.999"); got != 0 {
		t.Errorf("absent quantile = %v, want 0", got)
	}
	if _, err := parsePromText(strings.NewReader("e2e_x notanumber\n")); err == nil {
		t.Error("a non-numeric value was accepted")
	}
}

func TestParseMemStatsFooter(t *testing.T) {
	const footer = `heap profile: 1: 16 [2: 32] @ heap/1048576
1: 16 [2: 32] @ 0x1 0x2

# runtime.MemStats
# Alloc = 1404672
# TotalAlloc = 9876543210
# Sys = 13189136
# Mallocs = 4004004
# Frees = 4000000
# HeapObjects = 4004
# Stack = 524288 / 524288
# NextGC = 4194304
# PauseNs = [100000 200000 300000 0 0 0]
# PauseEnd = [1 2 3 0 0 0]
# NumGC = 412
# NumForcedGC = 0
# GCCPUFraction = 0.01
# DebugGC = false
# MaxRSS = 17604608
`
	m, err := parseMemStats(strings.NewReader(footer))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{TotalAlloc: 9876543210, Mallocs: 4004004, NumGC: 412, MaxRSS: 17604608, PauseMeanNs: 200000}
	if m != want {
		t.Errorf("parsed %+v, want %+v", m, want)
	}
	if _, err := parseMemStats(strings.NewReader("# runtime.MemStats\n# Mallocs = 5\n")); err == nil {
		t.Error("a footer without TotalAlloc was accepted")
	}
}

func TestParseKvloadReport(t *testing.T) {
	lines := []string{
		"obs listening on 127.0.0.1:40123",
		"sent 39989 requests; measured mean=149µs p50=107µs p99=1.284ms max=5.6ms (1647 estimate ticks)",
		"toggler: 1647 decisions, 212 switches, 160 explorations, final batch-off",
	}
	rep, err := parseKvloadReport(lines)
	if err != nil {
		t.Fatal(err)
	}
	want := kvloadReport{Sent: 39989, Mean: 149 * time.Microsecond, P50: 107 * time.Microsecond,
		P99: 1284 * time.Microsecond, Max: 5600 * time.Microsecond, EstimateTicks: 1647, Switches: 212}
	if rep != want {
		t.Errorf("parsed %+v, want %+v", rep, want)
	}
	if _, err := parseKvloadReport(lines[:1]); err == nil {
		t.Error("output without a report line was accepted")
	}
	if _, err := parseKvloadReport([]string{"sent 5 requests; measured mean=fast p50=1µs p99=1µs max=1µs (0 estimate ticks)"}); err == nil {
		t.Error("a report with a malformed duration was accepted")
	}
}

func TestParseListening(t *testing.T) {
	for line, want := range map[string][2]string{
		"kvserver listening on 127.0.0.1:35791 (nagle=false, shards=2, connbuf=65536, nofile=1048576)": {"kvserver", "127.0.0.1:35791"},
		"obs listening on 127.0.0.1:40123": {"obs", "127.0.0.1:40123"},
	} {
		who, addr, ok := parseListening(line)
		if !ok || who != want[0] || addr != want[1] {
			t.Errorf("parseListening(%q) = %q, %q, %v", line, who, addr, ok)
		}
	}
	if _, _, ok := parseListening("kvserver: shutting down"); ok {
		t.Error("a line that announces nothing was taken for a listener")
	}
}
