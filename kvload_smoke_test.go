package e2ebatch_test

// End-to-end smoke test for kvload as the repository benchmark runs it
// (bench/kvloadwl.go, workload sock-kvload-ctl): build the real kvserver and
// kvload binaries, run kvload's full configuration against the server, and
// apply the benchmark's own gates — exit 0, the rate held to 1 %, the two
// report lines bench/scrape.go parses, and the value kvload set readable
// afterwards. It runs in tier-1 via `make test`, so a change that breaks the
// workload fails here, not in a benchmark run.

import (
	"bufio"
	"bytes"
	"io"
	"math"
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
	want := rate * dur.Seconds()
	// kvload stops at its wall-clock deadline, so a late last wake-up on a
	// busy host costs it requests; the rate gate gets three tries.
	for attempt := 1; ; attempt++ {
		out, err := exec.Command(filepath.Join(dir, "kvload"), "-addr", addr, "-rate", strconv.Itoa(rate),
			"-value", strconv.Itoa(value), "-dur", dur.String(), "-toggle", "-tick", "1ms",
			"-obs", "127.0.0.1:0", "-spansample", "64").Output()
		if err != nil {
			t.Fatalf("kvload: %v\n%s", err, out)
		}
		// The two lines the benchmark parses, then the pacer's, in that order.
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 3 {
			t.Fatalf("kvload printed %q", out)
		}
		report := lines[len(lines)-3:]
		sent := kvloadSentLine.FindStringSubmatch(report[0])
		if sent == nil || !kvloadTogglerLine.MatchString(report[1]) || !kvloadPacerLine.MatchString(report[2]) {
			t.Fatalf("kvload's report is not the sent, toggler and pacer lines:\n%s", strings.Join(report, "\n"))
		}
		for _, d := range sent[2:6] {
			if _, err := time.ParseDuration(d); err != nil {
				t.Fatalf("report line %q: %v", report[0], err)
			}
		}
		n, _ := strconv.Atoi(sent[1])                                               // \d+ cannot fail to parse
		writes, _ := strconv.Atoi(kvloadPacerLine.FindStringSubmatch(report[2])[1]) // likewise
		if writes == 0 || writes >= n/2 {
			t.Fatalf("%d writes for %d requests; the pacer's bursts should share writes\n%s", writes, n, report[2])
		}
		if math.Abs(float64(n)-want) <= 0.01*want {
			break
		} else if attempt == 3 {
			t.Fatalf("kvload sent %d requests, not within 1%% of the %.0f its rate asks for\n%s", n, want, report[2])
		}
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
}
