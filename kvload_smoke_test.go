package e2ebatch_test

// End-to-end smoke test for kvload as the repository benchmark runs it
// (bench/kvloadwl.go, workload sock-kvload-ctl): build the real kvserver and
// kvload binaries, run kvload's plain and full configurations against the
// server, and apply the benchmark's own gates — exit 0, the rate held (here
// exactly: the schedule's every request), the report lines bench/scrape.go
// parses, and the value kvload set readable afterwards. It runs in tier-1
// via `make test`, so a change that breaks the workload fails here, not in a
// benchmark run. A last run holds several connections, which no benchmark
// workload does, from its flags to its pacers.

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"e2ebatch/internal/resp"
)

// The report formats bench/scrape.go pins (kvloadSent, kvloadSwitches).
var (
	kvloadSentLine    = regexp.MustCompile(`^sent (\d+) requests; measured mean=(\S+) p50=(\S+) p99=(\S+) max=(\S+) \((\d+) estimate ticks\)$`)
	kvloadTogglerLine = regexp.MustCompile(`^toggler: \d+ decisions, (\d+) switches, `)
	kvloadPacerLine   = regexp.MustCompile(`^pacer: (\d+) writes \(\S+ requests/write\), hand-over lag mean=\S+ max=\S+$`)
	kvloadFleetSent   = regexp.MustCompile(`(?m)^sent=(\d+) completed=`)
	// The schedule-origin mean and p99 and the span audit, which no
	// benchmark parses yet.
	kvloadResponseLine = regexp.MustCompile(`^response: mean=(\S+) p99=(\S+) \(hand-over lag (\S+) \+ service (\S+)\)$`)
	kvloadAuditLine    = regexp.MustCompile(`(?m)^audit: spans=(\d+) tail=\d+ coverage=[\d.]+ residual=\S+$`)
)

func TestKvloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes and sockets; skipped in short mode")
	}

	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/kvserver", "./cmd/kvload")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kvserver and kvload: %v\n%s", err, out)
	}

	srv := exec.Command(filepath.Join(dir, "kvserver"), "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatalf("starting kvserver: %v", err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	var addr string
	for sc := bufio.NewScanner(stdout); addr == "" && sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "kvserver" {
			addr = f[3]
		}
	}
	if addr == "" {
		t.Fatal("kvserver never announced its listener")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	const rate, value, dur = 20000, 64, 300 * time.Millisecond
	want := int(rate * dur.Seconds())
	kvload := func(args ...string) []string {
		t.Helper()
		args = append([]string{"-addr", addr, "-rate", strconv.Itoa(rate), "-value", strconv.Itoa(value), "-dur", dur.String()}, args...)
		out, err := exec.Command(filepath.Join(dir, "kvload"), args...).Output()
		if err != nil {
			t.Fatalf("kvload %v: %v\n%s", args, err, out)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}
	// sentOf parses the sent line and requires exactly want requests.
	sentOf := func(line string) int {
		t.Helper()
		sent := kvloadSentLine.FindStringSubmatch(line)
		if sent == nil {
			t.Fatalf("not kvload's sent line: %q", line)
		}
		for _, d := range sent[2:6] {
			if _, err := time.ParseDuration(d); err != nil {
				t.Fatalf("report line %q: %v", line, err)
			}
		}
		n, _ := strconv.Atoi(sent[1]) // \d+ cannot fail to parse
		if n != want {
			t.Fatalf("kvload sent %d requests, not the %d its schedule holds\n%s", n, want, line)
		}
		return n
	}

	// responseOf parses the response line: its mean is the lag and the
	// service added, up to their rounding to the microsecond, and its p99,
	// read from each request's own schedule, is no less than the mean
	// service.
	responseOf := func(line string) {
		t.Helper()
		m := kvloadResponseLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("not kvload's response line: %q", line)
		}
		var d [4]time.Duration
		for i := range d {
			var err error
			if d[i], err = time.ParseDuration(m[1+i]); err != nil {
				t.Fatalf("response line %q: %v", line, err)
			}
		}
		mean, p99, lag, service := d[0], d[1], d[2], d[3]
		if off := mean - lag - service; service <= 0 || off < -time.Microsecond || off > time.Microsecond {
			t.Fatalf("response mean %v is not hand-over lag %v + service %v", mean, lag, service)
		}
		if p99 < mean-lag {
			t.Fatalf("response p99 %v is under the mean response less the lag, %v", p99, mean-lag)
		}
	}

	// The benchmark's plain run (its warm-up and tax row): the sent line,
	// then the pacer's and the response line.
	lines := kvload()
	if len(lines) < 3 || !kvloadPacerLine.MatchString(lines[len(lines)-2]) {
		t.Fatalf("plain kvload's report does not end in the sent, pacer and response lines:\n%s", strings.Join(lines, "\n"))
	}
	sentOf(lines[len(lines)-3])
	responseOf(lines[len(lines)-1])

	// The benchmark's full run: the two lines it parses, then the pacer's
	// and the response line, in that order.
	lines = kvload("-toggle", "-tick", "1ms", "-obs", "127.0.0.1:0", "-spansample", "64")
	if len(lines) < 4 {
		t.Fatalf("kvload printed %q", lines)
	}
	report := lines[len(lines)-4:]
	if !kvloadTogglerLine.MatchString(report[1]) || !kvloadPacerLine.MatchString(report[2]) {
		t.Fatalf("kvload's report is not the sent, toggler, pacer and response lines:\n%s", strings.Join(report, "\n"))
	}
	n := sentOf(report[0])
	writes, _ := strconv.Atoi(kvloadPacerLine.FindStringSubmatch(report[2])[1]) // \d+ cannot fail to parse
	if writes == 0 || writes >= n/2 {
		t.Fatalf("%d writes for %d requests; the pacer's bursts should share writes\n%s", writes, n, report[2])
	}
	responseOf(report[3])
	// Spans are on, so the audit line sits above the report and has
	// scored spans.
	if m := kvloadAuditLine.FindStringSubmatch(strings.Join(lines[:len(lines)-4], "\n")); m == nil || m[1] == "0" {
		t.Fatalf("kvload's full run printed no audit line with scored spans:\n%s", strings.Join(lines, "\n"))
	}

	// The workload's output: the server holds the value kvload set.
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("final GET: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	key := bytes.Repeat([]byte{'k'}, 16) // kvload's -key default
	if _, err := nc.Write(resp.AppendCommand(nil, []byte("GET"), key)); err != nil {
		t.Fatalf("final GET: %v", err)
	}
	reply := "$" + strconv.Itoa(value) + "\r\n" + strings.Repeat("v", value) + "\r\n"
	got := make([]byte, len(reply))
	if _, err := io.ReadFull(nc, got); err != nil || string(got) != reply {
		t.Fatalf("final GET returned %.40q (%v), want the %d-byte value kvload set", got, err, value)
	}

	// Several connections: two active ones, each asked for five requests
	// per 1 ms wheel tick, each sending exactly what its schedule holds.
	const conns, fleetRate = 2, 5000
	lines = kvload("-conns", strconv.Itoa(conns), "-active", strconv.Itoa(conns), "-rate", strconv.Itoa(fleetRate))
	m := kvloadFleetSent.FindStringSubmatch(strings.Join(lines, "\n"))
	if m == nil {
		t.Fatalf("kvload fleet printed no sent= line:\n%s", strings.Join(lines, "\n"))
	}
	if n, _ := strconv.Atoi(m[1]); n != conns*fleetRate*int(dur.Milliseconds())/1000 { // \d+ cannot fail to parse
		t.Fatalf("kvload fleet sent %d requests, want %d × %d req/s × %v\n%s", n, conns, fleetRate, dur, strings.Join(lines, "\n"))
	}
}
