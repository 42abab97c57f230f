//go:build !race

// Allocation gate (DESIGN.md §13) for this package's //e2e:hotpath function.
// Excluded under -race because the race runtime allocates shadow state that
// AllocsPerRun would charge to the tracked code.

package tcpsim

import "testing"

func TestAllocGateDigestFold(t *testing.T) {
	d := digest{h: digestBasis}
	data := payload(16411) // a 16 KiB SET: whole words plus a 3-byte carry
	if n := testing.AllocsPerRun(200, func() {
		d.fold(data)
		d.fold(data[:5])
		_ = d.sum()
	}); n != 0 {
		t.Errorf("digest.fold allocates %v per op, want 0 (//e2e:hotpath)", n)
	}
}
