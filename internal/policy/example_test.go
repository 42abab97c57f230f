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

// ExampleAIMD shows the §5 batch-limit controller: additive growth while
// the signal says "grow", multiplicative decay otherwise.
func ExampleAIMD() {
	a := policy.NewAIMD(1448, 65536, 8192, 0.5)
	for i := 0; i < 4; i++ {
		a.Observe(true) // SLO violated: batch more
	}
	fmt.Println("after growth:", a.Limit())
	a.Observe(false) // healthy: back off
	fmt.Println("after decay:", a.Limit())
	// Output:
	// after growth: 34216
	// after decay: 17108
}
