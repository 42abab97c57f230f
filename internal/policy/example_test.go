package policy_test

import (
	"fmt"
	"math/rand"
	"time"

	"e2ebatch/internal/policy"
)

// ExampleToggler drives the ε-greedy policy with estimates where batching
// meets a 500 µs SLO and not batching does not; it converges to batch-on.
func ExampleToggler() {
	tog := policy.NewToggler(
		policy.ThroughputUnderSLO{SLO: 500 * time.Microsecond},
		policy.DefaultTogglerConfig(),
		policy.BatchOff,
		rand.New(rand.NewSource(1)),
	)
	for i := 0; i < 200; i++ {
		if tog.Mode() == policy.BatchOn {
			tog.Observe(200*time.Microsecond, 50000, true)
		} else {
			tog.Observe(900*time.Microsecond, 40000, true)
		}
	}
	fmt.Println(tog.Mode())
	// Output:
	// batch-on
}
