// Package figures regenerates every table and figure of the paper's
// evaluation on the simulated testbed. Run executes one experiment from a
// RunSpec; Figures lists the tables e2efig renders. Figure 1 is the closed
// form (Fig1). The thirteen simulated figures are each one Sweep: the runs of
// one varied variable (offered load, client cost, tick, exchange interval,
// loss), each row holding the arms compared at that value, with columns
// read from the runs and lines derived across them. One writer renders every
// sweep, and tests read its cells back by column name (Col, Stat). Fidelity
// scores the workload zoo against the estimator and its rivals for the two
// cmd/fidelity reports.
//
// Absolute values are calibrated, not measured — the constants below stand
// in for two Xeon servers with 100 Gbps NICs (see DESIGN.md §2). The shape
// claims (who wins, where the crossover falls, how accurate the estimates
// are) are what the tests assert.
package figures

import (
	"time"

	"e2ebatch/internal/cpumodel"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/netem"
	"e2ebatch/internal/tcpsim"
)

// Calib bundles every cost and protocol constant of the simulated testbed.
type Calib struct {
	// Link models one direction of the back-to-back 100 Gbps wire.
	Link netem.Config
	// TCP is the base connection config; Nagle/cork are overridden per
	// run mode.
	TCP tcpsim.Config
	// CorkOnBytes is the sender hold threshold in batch-on mode. Classic
	// byte-granularity Nagle barely affects 16 KiB messages, so batch-on
	// uses a TSO-sized cork — "hold while ACKs are owed, up to 64 KiB" —
	// as the representative sender-batching policy (DESIGN.md §2).
	CorkOnBytes int

	// Server host costs: the receive softirq path is the calibrated
	// bottleneck (per-delivery cost covers IRQ, driver, GRO, netfilter).
	ServerTx, ServerRx cpumodel.Costs
	// Client host costs.
	ClientTx, ClientRx cpumodel.Costs

	// Server is the mini-Redis application cost profile.
	Server tcpsim.SimServerConfig
	// Load is the client cost profile (rate and duration set per run).
	Load loadgen.Config

	// VMScale multiplies client-side costs for the Figure 2 "inside a
	// VM" configuration; Fig2Rate is the fixed offered load of that
	// experiment. (The paper used 20 kRPS; our calibrated cutoff sits
	// near 32 kRPS, so the fixed rate is placed just above it at 34 kRPS
	// to reproduce the same relative operating point — see DESIGN.md.)
	VMScale  float64
	Fig2Rate float64

	// SLO is the tolerable-latency threshold (500 µs in §4).
	SLO time.Duration

	// Workload shape: 16 B keys, 16 KiB values (§4).
	KeySize, ValSize int
}

// DefaultCalib returns the calibration used throughout EXPERIMENTS.md.
func DefaultCalib() Calib {
	tcp := tcpsim.DefaultConfig()
	tcp.DelAckTimeout = 500 * time.Microsecond

	load := loadgen.Config{
		Arrival:     loadgen.Poisson,
		SendCosts:   cpumodel.Costs{PerItem: 2 * time.Microsecond, PerByteNS: 0.2},
		ReadCosts:   cpumodel.Costs{PerBatch: 2 * time.Microsecond},
		PerResponse: 3 * time.Microsecond,
	}

	return Calib{
		Link:        netem.Config{BitsPerSec: 100_000_000_000, Propagation: 2 * time.Microsecond},
		TCP:         tcp,
		CorkOnBytes: tcp.TSOMaxBytes,

		ServerRx: cpumodel.Costs{PerBatch: 7 * time.Microsecond, PerItem: 500 * time.Nanosecond, PerByteNS: 0.2},
		ServerTx: cpumodel.Costs{PerBatch: 1 * time.Microsecond, PerItem: 200 * time.Nanosecond, PerByteNS: 0.05},
		ClientTx: cpumodel.Costs{PerBatch: 2 * time.Microsecond, PerItem: 300 * time.Nanosecond, PerByteNS: 0.2},
		ClientRx: cpumodel.Costs{PerBatch: 2 * time.Microsecond, PerItem: 200 * time.Nanosecond, PerByteNS: 0.1},

		Server: tcpsim.SimServerConfig{
			ReadCosts:  cpumodel.Costs{PerBatch: 4 * time.Microsecond, PerItem: 2 * time.Microsecond, PerByteNS: 0.3},
			WriteCosts: cpumodel.Costs{PerItem: 1 * time.Microsecond, PerByteNS: 0.1},
		},
		Load: load,

		VMScale:  1.75,
		Fig2Rate: 34000,
		SLO:      500 * time.Microsecond,
		KeySize:  16,
		ValSize:  16 << 10,
	}
}
