package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a child may take to exit after SIGINT (or, for a
// child that ends by itself, past its expected end) before it is killed and
// the run fails.
const stopGrace = 30 * time.Second

// buildChildren compiles kvserver and kvload from the checkout's source into
// binDir and returns how long that took. The Go build cache makes a second
// call cheap.
func buildChildren(opt options) (time.Duration, error) {
	if err := os.MkdirAll(opt.binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", opt.binDir+string(filepath.Separator), "./cmd/kvserver", "./cmd/kvload")
	cmd.Dir = opt.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/kvserver ./cmd/kvload: %v\n%s", err, out)
	}
	return time.Since(t0), nil
}

// child is a spawned program whose stdout is read line by line: the
// listening addresses it announces are picked out, every line is kept.
type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been waited for
	err  error         // Wait's result, valid after done

	mu    sync.Mutex
	lines []string
	addrs map[string]string // "kvserver" / "obs" → host:port
	seen  chan struct{}     // poked on every line
}

var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// killChildren is the last resort of the signal handler.
func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	for c := range children {
		_ = c.cmd.Process.Kill() // the process may already be gone; nothing to do about it here
	}
}

// spawn starts bin with args, on this process's CPU. Ports are never fixed:
// callers pass 127.0.0.1:0 and read the chosen address back with addr.
func spawn(bin string, args ...string) (*child, error) {
	c := &child{
		name:  filepath.Base(bin),
		cmd:   exec.Command(bin, args...),
		done:  make(chan struct{}),
		addrs: map[string]string{},
		seen:  make(chan struct{}, 1),
	}
	c.cmd.Stderr = os.Stderr
	// If the benchmark dies without a chance to clean up, the kernel
	// takes the child along: no orphan keeps a port or a CPU.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", c.name, err)
	}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		c.scan(stdout)
		c.err = c.cmd.Wait()
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.lines = append(c.lines, line)
		if who, addr, ok := parseListening(line); ok {
			c.addrs[who] = addr
		}
		c.mu.Unlock()
		select {
		case c.seen <- struct{}{}:
		default:
		}
	}
}

// server is a running kvserver child and where it listens.
type server struct {
	srv     *child
	addr    string
	obsAddr string // traced runs only
}

// spawnServer starts a kvserver on ports of the kernel's choosing, with the
// telemetry plane for a traced run, and waits for the addresses it announces.
func spawnServer(opt options, traced bool) (server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if traced {
		args = append(args, "-obs", "127.0.0.1:0", "-spansample", "64")
	}
	srv, err := spawn(filepath.Join(opt.binDir, "kvserver"), args...)
	if err != nil {
		return server{}, err
	}
	s := server{srv: srv}
	if s.addr, err = srv.addr("kvserver", ioTimeout); err == nil && traced {
		s.obsAddr, err = srv.addr("obs", ioTimeout)
	}
	if err != nil {
		_ = srv.stop() // the set-up error is the one worth reporting
		return server{}, err
	}
	return s, nil
}

// parseListening recognises "kvserver listening on ADDR (...)" and
// "obs listening on ADDR".
func parseListening(line string) (who, addr string, ok bool) {
	f := strings.Fields(line)
	if len(f) >= 4 && f[1] == "listening" && f[2] == "on" && (f[0] == "kvserver" || f[0] == "obs") {
		return f[0], f[3], true
	}
	return "", "", false
}

// addr waits until the child has announced the named listener.
func (c *child) addr(who string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		a := c.addrs[who]
		c.mu.Unlock()
		if a != "" {
			return a, nil
		}
		select {
		case <-c.seen:
		case <-c.done:
			return "", fmt.Errorf("%s exited before announcing its %s listener: %v", c.name, who, c.err)
		case <-deadline:
			return "", fmt.Errorf("%s did not announce its %s listener within %v", c.name, who, timeout)
		}
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// wait waits for a child that ends by itself and requires exit 0. Past the
// limit the child is killed and the overrun is the error.
func (c *child) wait(limit time.Duration) error {
	select {
	case <-c.done:
		if c.err != nil {
			return fmt.Errorf("%s: %w", c.name, c.err)
		}
		return nil
	case <-time.After(limit):
		_ = c.cmd.Process.Kill() // it is being abandoned; the overrun is what gets reported
		<-c.done
		return fmt.Errorf("%s overran %v and was killed", c.name, limit)
	}
}

// stop interrupts a serving child and requires a clean exit 0.
func (c *child) stop() error {
	select {
	case <-c.done:
		return fmt.Errorf("%s exited by itself: %v", c.name, c.err)
	default:
	}
	if err := c.cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("%s: SIGINT: %w", c.name, err)
	}
	return c.wait(stopGrace)
}

// onCPU is the time a live process's threads have spent on a CPU, from the
// scheduler's own per-thread accounting in /proc/<pid>/task/*/schedstat. The
// utime and stime of /proc/<pid>/stat and of getrusage are sampled at the
// timer tick on this kind of kernel (TICK_CPU_ACCOUNTING), which a paced
// sender that wakes on timers aliases with: the same run read 18 or 40 µs
// per request depending on its phase.
func onCPU(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%d/task (%v)", pid, err)
	}
	var total time.Duration
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ns, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// procCPU reads the tick-sampled user and system CPU of a live process from
// /proc/<pid>/stat. It is used only for the user:system ratio over a whole
// window; totals come from onCPU.
func procCPU(pid int) (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(b))
}
