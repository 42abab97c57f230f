// Package wallclock is golden testdata for e2elint/determinism's host-clock
// ban: the test loads it under the import path of each simulated-time
// package, expecting every finding, and under an unrestricted path,
// expecting silence.
package wallclock

import "time"

func reads() time.Duration {
	t := time.Now()    // want "wall-clock time.Now in simulated-time package"
	d := time.Since(t) // want "wall-clock time.Since in simulated-time package"
	d += time.Until(t) // want "wall-clock time.Until in simulated-time package"
	return d + sleepless()
}

func sleepless() time.Duration {
	// Durations, arithmetic and formatting on time values are all fine:
	// only reading the host clock is forbidden here.
	return 5 * time.Millisecond
}
