package figures

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestCalibrationProbe prints the raw sweep so the calibration constants
// can be tuned; enable with E2E_PROBE=1.
func TestCalibrationProbe(t *testing.T) {
	if os.Getenv("E2E_PROBE") == "" {
		t.Skip("set E2E_PROBE=1 to run the calibration probe")
	}
	cal := DefaultCalib()
	for _, rate := range []float64{5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000, 60000, 70000, 80000, 90000} {
		for _, on := range []bool{false, true} {
			out := Run(RunSpec{
				Calib:    cal,
				Seed:     7,
				Rate:     rate,
				Duration: 300 * time.Millisecond,
				BatchOn:  on,
			})
			fmt.Printf("rate=%6.0f batch=%-5v meas=%8v estB=%8v (valid=%v) ach=%7.0f sUtil(app=%.2f soft=%.2f) cUtil(app=%.2f soft=%.2f) batches=%d reqs=%d maxB=%d flushes(c)=%d drop=%d\n",
				rate, on, out.Res.Latency.Mean().Round(time.Microsecond),
				out.Est[0].Latency.Round(time.Microsecond), out.Est[0].Valid,
				out.Res.AchievedRate,
				out.ServerAppUtil, out.ServerSoftUtil, out.ClientAppUtil, out.ClientSoftUtil,
				out.ServerStats.ReadBatches, out.ServerStats.Requests, out.ServerStats.MaxBatch,
				out.ClientConn.Flushes, out.Res.Dropped)
		}
	}
}

// TestExtensionsProbe prints Figure 4b's latency per request kind, which
// the rendered table does not show; enable with E2E_PROBE=1.
func TestExtensionsProbe(t *testing.T) {
	if os.Getenv("E2E_PROBE") == "" {
		t.Skip("set E2E_PROBE=1 to run")
	}
	fb := Fig4b(DefaultCalib(), []float64{5000, 15000}, 400*time.Millisecond, 7)
	for _, p := range fb.Points {
		fmt.Printf("4b rate=%v off(set=%v get=%v) on(set=%v get=%v)\n", p.Rate,
			p.Off.SetMeasured.Round(time.Microsecond), p.Off.GetMeasured.Round(time.Microsecond),
			p.On.SetMeasured.Round(time.Microsecond), p.On.GetMeasured.Round(time.Microsecond))
	}
}
