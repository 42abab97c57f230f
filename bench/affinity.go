package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// CPU placement is part of every workload's definition: the whole benchmark —
// this process with its simulator, its load connections and its replay
// probes, and every child it starts, kvserver and kvload — runs on one CPU,
// the first this process is allowed. A child inherits the mask.
//
// On the 2-vCPU guest the benchmark was defined on, what a wake-up across
// CPUs costs is the hypervisor's to decide, minute by minute. Left to the
// scheduler, sock-pipe64 wandered between 290 k and 450 k req/s inside one run
// and sim-set16k paid a third of its time for garbage collector wake-ups on
// the other CPU. With the load on one CPU and kvserver on the other, the two
// closed loops still depend on it: client and server either keep each other
// awake or fall asleep in step (quartile spreads of 30 % and 15 % in two sets
// of runs of the same code), and in a phase where the host was slow to wake
// an idle vCPU sock-pipe64 fell from 390 k to 6 k req/s and sock-rw16k from
// 25 k to 230. On one CPU a closed loop is a strict alternation — the clients
// write until they block, the server answers until it blocks — and costs no
// wake-up across CPUs at all.
var loadCPU = -1

type cpuMask [16]uint64 // 1024 CPUs

func (m *cpuMask) syscall(nr uintptr, tid int) (uintptr, error) {
	n, _, errno := syscall.RawSyscall(nr, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return 0, errno
	}
	return n, nil
}

// setAffinity confines thread tid to one CPU.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	_, err := m.syscall(syscall.SYS_SCHED_SETAFFINITY, tid)
	return err
}

// placeLoad picks the CPU and moves every thread of this process to it.
// Threads started later inherit the mask of the thread that starts them, so a
// second pass catches one that was being born during the first.
func placeLoad() error {
	var m cpuMask
	if _, err := m.syscall(syscall.SYS_SCHED_GETAFFINITY, 0); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	for cpu := 0; cpu < 64*len(m) && loadCPU < 0; cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			loadCPU = cpu
		}
	}
	runtime.GOMAXPROCS(1)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// a thread may exit between the listing and the call
			if err := setAffinity(tid, loadCPU); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, loadCPU, err)
			}
		}
	}
	return nil
}

// moment is an instant on the load's CPU: the wall clock, and how much of the
// wall time so far the hypervisor gave to other guests instead (the steal
// time of /proc/stat, which counts in hundredths of a second).
type moment struct {
	at     time.Time
	stolen time.Duration
}

func now() moment {
	m := moment{at: time.Now()}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		m.stolen, _ = parseSteal(string(b), loadCPU) // unreadable reads as none stolen: plain wall time
	}
	return m
}

// since is how long the CPU was this guest's to use between a and m. Every
// workload but the paced one keeps its one CPU busy, so work done per second
// of this, not of the wall clock, is what the program's speed decides: on the
// host the benchmark was defined on a guest that keeps a vCPU busy loses 5 to
// 40 % of the wall time to steal, in stalls of 3 ms, more in one minute than
// in the next, and sock-pipe64 read 133 k to 303 k req/s by the wall clock in
// six runs whose CPU per request stayed within 2.9 to 3.5 µs.
func (m moment) since(a moment) time.Duration {
	wall := m.at.Sub(a.at)
	if given := wall - (m.stolen - a.stolen); given > 0 {
		return given
	}
	return wall
}
