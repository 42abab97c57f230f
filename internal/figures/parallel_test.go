package figures

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// goldenDur keeps the determinism tests cheap enough for the short-mode
// -race gate while still covering several decision ticks per run.
func goldenDur() time.Duration {
	if testing.Short() {
		return 20 * time.Millisecond
	}
	return 60 * time.Millisecond
}

// goldenSpecs is a small mixed sweep: both static modes across three rates
// plus one dynamic-toggling run, enough to exercise every controller path
// through the worker pool.
func goldenSpecs() []RunSpec {
	cal := DefaultCalib()
	dur := goldenDur()
	var specs []RunSpec
	for _, rate := range []float64{10000, 35000, 60000} {
		for _, on := range []bool{false, true} {
			specs = append(specs, RunSpec{Calib: cal, Seed: 7, Rate: rate, Duration: dur, BatchOn: on})
		}
	}
	specs = append(specs, RunSpec{Calib: cal, Seed: 11, Rate: 50000, Duration: dur, Dynamic: DefaultDynamicSpec(cal.SLO)})
	return specs
}

// TestRunManyGoldenDeterminism is the tentpole guarantee: fanning a sweep
// across workers yields results deeply identical to running it serially,
// run by run, because every run owns its RNG and simulator.
func TestRunManyGoldenDeterminism(t *testing.T) {
	specs := goldenSpecs()
	serial := RunMany(specs, 1)
	parallel := RunMany(specs, 4)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("got %d serial / %d parallel results for %d specs", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		if serial[i] == nil || parallel[i] == nil {
			t.Fatalf("run %d: nil result (serial=%v parallel=%v)", i, serial[i] == nil, parallel[i] == nil)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("run %d: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
				i, serial[i].Res, parallel[i].Res)
		}
	}
}

// TestRunManyMoreWorkersThanSpecs clamps the pool and still fills every slot.
func TestRunManyMoreWorkersThanSpecs(t *testing.T) {
	specs := goldenSpecs()[:2]
	outs := RunMany(specs, 64)
	want := RunMany(specs, 1)
	for i := range specs {
		if !reflect.DeepEqual(outs[i], want[i]) {
			t.Errorf("run %d differs with clamped worker pool", i)
		}
	}
}

// TestFig4aParallelBytesIdentical renders a small Figure 4a sweep serially
// and with four workers and requires byte-identical output — the end-to-end
// form of the determinism guarantee that cmd/e2efig relies on.
func TestFig4aParallelBytesIdentical(t *testing.T) {
	cal := DefaultCalib()
	rates := []float64{20000, 45000}
	render := func(workers int) []byte {
		prev := SetParallelism(workers)
		defer SetParallelism(prev)
		var buf bytes.Buffer
		fig4a(Params{Calib: cal, Dur: goldenDur(), Seed: 7, Rates: rates}).run().Write(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("rendered figure differs between serial and parallel runs\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestSetParallelism checks the knob's swap/default semantics.
func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	if old := SetParallelism(0); old != 3 {
		t.Fatalf("SetParallelism returned %d, want previous value 3", old)
	}
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d with default setting, want >= 1", got)
	}
}
