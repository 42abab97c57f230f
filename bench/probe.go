package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe says how fast the host's CPU is while a workload is being
// measured, so that what is reported is the program's speed and not the
// host's that minute. On the shared 2-vCPU guest the benchmark was defined on
// the same instructions take 1.0, 1.25 or up to 2 times as long from one
// second to the next (a busy sibling thread, the clock, the caches: nothing
// the guest can see or change), and every CPU-bound number moved with it:
// in two sets of ten runs of the same code sock-pipe64 cost 1.4 to 2.7 µs of
// CPU per request, sim-small-tails 4.0 to 7.6. A fixed piece of integer work
// run on the load's CPU for 1 ms in every 50 moves the same way: over the
// one-second slices of one sock-pipe64 run the two correlate at 0.93, and
// dividing one by the other halves the spread between slices.
//
// So every slice's times are divided, and its rates multiplied, by the slice's
// speed index: the median cost of the probe's samples inside the slice over
// probeRef. A metric then reads what it would on a host where the probe costs
// exactly probeRef. The probe is timed on its thread's CPU clock, which does
// not run while the thread is preempted or the vCPU stolen.
const (
	probeWork   = 300_000               // splitmix64 steps per sample: about 1 ms
	probePeriod = 50 * time.Millisecond // 2 % of the CPU
	probeRef    = time.Millisecond      // a sample's cost on the reference host
)

type probeSample struct {
	at   time.Time
	cost time.Duration
}

type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample
	quit    chan struct{}
	done    chan struct{}
}

// probeSpent is the CPU every probe so far has consumed; cpuTime leaves it
// out of what the benchmark charges to a workload.
var probeSpent atomic.Int64

var probeSink uint64

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// startProbe samples the host's speed until stop is called.
func startProbe() *speedProbe {
	p := &speedProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The thread clock needs the goroutine to stay on its thread. The
		// thread goes back to the runtime afterwards, so that the CPU it has
		// used stays in this process's total, where probeSpent cancels it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		last := threadCPU()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			c0 := threadCPU()
			x := uint64(c0)
			for i := 0; i < probeWork; i++ {
				x = splitmix64(x)
			}
			probeSink = x
			c1 := threadCPU()
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{at: time.Now(), cost: c1 - c0})
			p.mu.Unlock()
			probeSpent.Add(int64(c1 - last))
			last = c1
		}
	}()
	return p
}

func (p *speedProbe) stop() {
	close(p.quit)
	<-p.done
}

// index is the host's slowness between a and b: the median cost of the
// samples taken then, over probeRef. An interval too short to hold a sample
// reads as the reference host.
func (p *speedProbe) index(a, b time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var costs []float64
	for _, s := range p.samples {
		if !s.at.Before(a) && !s.at.After(b) && s.cost > 0 {
			costs = append(costs, float64(s.cost))
		}
	}
	if len(costs) == 0 {
		return 1
	}
	return median(costs) / float64(probeRef)
}
