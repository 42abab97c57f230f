package obs

import (
	"e2ebatch/internal/trace"
)

// CountTraceEvents bridges a trace log's out-of-band events — fault
// activations above all — into reg as e2e_fault_activations_total{kind},
// plus the log's sample count. The bridge is strictly post-hoc: the
// simulation writes its log with no knowledge of the registry (the
// determinism analyzer enforces that), and this function folds the
// finished log in afterwards, so golden-pinned figure output cannot be
// perturbed by telemetry. cmd/e2efig -metricsout is the caller.
func CountTraceEvents(reg *Registry, log *trace.Log) {
	reg.Counter("e2e_trace_samples_total", "Counter samples in the bridged trace log.").
		Add(uint64(len(log.Records)))
	for _, e := range log.Events {
		reg.Counter("e2e_fault_activations_total",
			"Fault-plan activations recorded in the trace log, by kind.",
			Label{"kind", e.Kind}).Inc()
	}
}
