//go:build !race

package allocgate

import (
	"testing"
)

var sink []int

// TestCountsAmortizedGrowth is the blind spot Zero exists to close: an
// append that grows its slice a handful of times over 200 runs reads 0 per
// run through testing.AllocsPerRun, and fails Zero.
func TestCountsAmortizedGrowth(t *testing.T) {
	grow := func() { sink = append(sink, 1) }
	sink = nil
	if n := testing.AllocsPerRun(200, grow); n != 0 {
		t.Fatalf("AllocsPerRun read %v; the blind spot this test shows is gone", n)
	}
	sink = nil
	var ft failTB
	Zero(&ft, 200, "append", grow)
	if !ft.failed {
		t.Fatal("Zero passed a path that grows a slice")
	}
}

// failTB records a failure instead of failing the test.
type failTB struct {
	testing.TB
	failed bool
}

func (f *failTB) Helper() {}

func (f *failTB) Errorf(string, ...any) { f.failed = true }
