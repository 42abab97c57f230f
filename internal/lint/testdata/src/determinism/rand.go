// Package determinism is golden testdata for e2elint/determinism's
// module-wide half: the three math/rand shapes, flagged under any import
// path.
package determinism

import (
	"math/rand"
	"time"
)

var globalRNG = rand.New(rand.NewSource(1)) // want "package-level RNG globalRNG shares one stream"

var globalSrc rand.Source // want "package-level RNG globalSrc shares one stream"

func globals() int {
	rand.Seed(42)             // want "rand.Seed draws from the process-global source"
	if rand.Float64() < 0.5 { // want "rand.Float64 draws from the process-global source"
		return rand.Intn(10) // want "rand.Intn draws from the process-global source"
	}
	rand.Shuffle(3, func(i, j int) {}) // want "rand.Shuffle draws from the process-global source"
	return 0
}

func wallClockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "rand.NewSource seeded from time.Now is nondeterministic"
}

func perRunSeeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // ok: explicit per-run seed
	return rng.Intn(10)                   // ok: method on a local stream
}
