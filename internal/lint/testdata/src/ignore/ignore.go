// Package ignore is golden testdata for the //lint:ignore escape hatch:
// every violation below carries a justified directive, so the suite must
// come back clean.
package ignore

import "math/rand"

func ownLine() int {
	//lint:ignore e2elint/determinism golden test: directive on its own line suppresses the next line
	return rand.Intn(10)
}

func trailing() int {
	return rand.Intn(10) //lint:ignore e2elint/determinism golden test: trailing directive suppresses its own line
}
