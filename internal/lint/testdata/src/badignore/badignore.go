// Package badignore is testdata for directive verification: a reasonless
// directive and an unknown analyzer name are both findings, and neither
// suppresses anything.
package badignore

import "math/rand"

func missingReason() int {
	//lint:ignore e2elint/determinism
	return rand.Intn(10)
}

func unknownAnalyzer() int {
	//lint:ignore e2elint/nosuchthing because I said so
	return rand.Intn(10)
}
