package figures

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"e2ebatch/internal/core"
	"e2ebatch/internal/faults"
	"e2ebatch/internal/loadgen"
	"e2ebatch/internal/policy"
	"e2ebatch/internal/tcpsim"
)

// The claims of the paper that a simulated sweep backs: one table, one
// driver. TestClaims runs each entry at its pinned seeds as the subtest
// TestClaims/<name> that EXPERIMENTS.md's ledger cites. With E2E_CLAIM_SEEDS
// set (`make claims`) it instead runs each entry at seeds s0+100k,
// k = 0…claimSeeds-1, s0 its first pinned seed, and rewrites seedsFile, whose
// k/N the ledger's Seeds column must quote.

const (
	testDur    = 300 * time.Millisecond
	claimSeeds = 11
	seedsFile  = "testdata/claims_seeds.txt"
)

// A claim is one entry: the sweep it runs for the Params of a seed and its
// run length dur, and the predicate its finished sweep must satisfy. short
// keeps it in -short mode (the race leg).
type claim struct {
	name  string
	seeds []int64
	dur   time.Duration
	short bool
	sweep func(p Params) *Sweep
	check func(t checker, s *Sweep)
}

// checker is the part of *testing.T a predicate reports through, so the
// same assertion texts serve the pinned subtests and the seed sweep.
type checker interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

func claims() []claim {
	at := func(f func(Params) *Sweep, rates ...float64) func(Params) *Sweep {
		return func(p Params) *Sweep { p.Rates = rates; return f(p) }
	}
	const long = 500 * time.Millisecond
	return []claim{
		{"fig2", []int64{11}, testDur, false, fig2, checkFig2},
		{"fig4a", []int64{7}, testDur, false, at(fig4a, 5000, 20000, 35000, 50000, 70000, 85000), checkFig4a},
		{"headline", []int64{19, 101}, 200 * time.Millisecond, false, func(p Params) *Sweep {
			return &Sweep{Rows: vary([]float64{5000, 60000}, func(rate float64) []RunSpec { return offOn(p.spec(rate)) })}
		}, checkHeadline},
		{"fig4b", []int64{7}, testDur, false, at(fig4b, 5000, 35000, 50000), checkFig4b},
		{"toggle", []int64{7}, long, false, at(toggle, 10000, 50000), checkToggle},
		{"hints", []int64{7}, testDur, false, func(p Params) *Sweep {
			p.Rates, p.SyscallBatch = []float64{10000, 30000}, 4
			return hintsSweep(p)
		}, checkHints},
		{"aimd", []int64{7}, long, false, at(aimdSweep, 10000, 60000), checkAIMD},
		{"tick", []int64{7}, long, false, func(p Params) *Sweep {
			return tick(p, 50000, []time.Duration{200 * time.Microsecond, 20 * time.Millisecond})
		}, checkTick},
		{"exchange", []int64{7}, testDur, false, func(p Params) *Sweep {
			return exchange(p, 35000, []time.Duration{0, time.Millisecond, 50 * time.Millisecond})
		}, checkExchange},
		{"multiconn", []int64{7}, testDur, false, func(p Params) *Sweep { return multiConn(p, 4, 50000) }, checkMultiConn},
		{"aggregate", []int64{3}, 200 * time.Millisecond, true, func(p Params) *Sweep { return multiConn(p, 2, 20000) }, checkAggregate},
		// Only up to 2x: beyond that the slow client itself saturates under
		// batching-off and batching flips back to helpful (it cuts the
		// client's per-wakeup work) — richer than Figure 1, verified by the
		// CLI's wider sweep.
		{"cscan", []int64{11}, testDur, false, func(p Params) *Sweep { return cscan(p, []float64{1, 1.5, 2}) }, checkCScan},
		{"bandits", []int64{7}, long, false, func(p Params) *Sweep { return bandits(p, []float64{45000}) }, checkBandits},
		{"loss", []int64{7}, testDur, true, func(p Params) *Sweep { return loss(p, 20000, []float64{0, 0.01}) }, checkLoss},
		{"faults", []int64{7}, degradedDur(), true, func(p Params) *Sweep {
			return &Sweep{Rows: []Row{row(degradedSpec(p.Seed, p.Dur))}}
		}, checkFaults},
	}
}

func TestClaims(t *testing.T) {
	if os.Getenv("E2E_CLAIM_SEEDS") != "" {
		if err := os.WriteFile(seedsFile, seedTable(claims(), claimSeeds), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var inFile, inTable []string
	for _, c := range claims() {
		inTable = append(inTable, c.name)
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // a sweep's tail leaves a CPU idle; its neighbour fills it
			if !c.short {
				skipIfShort(t)
			}
			for _, seed := range c.seeds {
				c.verify(t, seed)
			}
		})
	}
	// The table and the file name the same claims, so none is added or
	// renamed without a sweep line.
	src, err := os.ReadFile(seedsFile)
	for _, line := range strings.Split(string(src), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "#" {
			inFile = append(inFile, f[0])
		}
	}
	if a, b := strings.Join(inFile, " "), strings.Join(inTable, " "); err != nil || a != b {
		t.Errorf("%s names %s (%v);\nthe claim table has %s: run `make claims`", seedsFile, a, err, b)
	}
}

// verify runs c's sweep at seed and checks it, and that a figure renders.
func (c claim) verify(t checker, seed int64) {
	s := c.sweep(Params{Calib: DefaultCalib(), Dur: c.dur, Seed: seed}).run()
	c.check(t, s)
	if s.title != nil {
		var buf bytes.Buffer
		if s.Write(&buf); buf.Len() == 0 {
			t.Fatalf("empty table")
		}
	}
}

// seedTable runs each claim at n seeds and returns seedsFile: per claim its
// k/N, a + or x per seed, and the first failing assertion with its seed.
func seedTable(cs []claim, n int) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# TestClaims at seeds s0+100k, k = 0…%d, s0 the first pinned seed: `make claims`.\n", n-1)
	w := tabwriter.NewWriter(&buf, 0, 0, 2, ' ', 0)
	for _, c := range cs {
		held, marks, first := 0, "", "-"
		for k := range n {
			seed := c.seeds[0] + 100*int64(k)
			var r recorder
			r.catch(func() { c.verify(&r, seed) })
			if r.failure == "" {
				held, marks = held+1, marks+"+"
				continue
			}
			if marks += "x"; first == "-" {
				first = fmt.Sprintf("seed %d: %s", seed, r.failure)
			}
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%s\t%s\n", c.name, held, n, marks, first)
	}
	w.Flush()
	return buf.Bytes()
}

// recorder is the seed sweep's checker: it keeps the first failure, and its
// Fatalf stops the predicate as a test's does.
type recorder struct{ failure string }

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	panic(r)
}

// catch runs f, absorbing the panic of r's own Fatalf.
func (r *recorder) catch(f func()) {
	defer func() {
		if v := recover(); v != nil && v != r {
			panic(v)
		}
	}()
	f()
}

// TestClaimSeedSweepDeterministic: the seed sweep of the table's loss and
// exchange entries at two seeds, their runs cut to goldenDur to keep it
// cheap, gives the same bytes on one worker and on four.
func TestClaimSeedSweepDeterministic(t *testing.T) {
	skipIfShort(t)
	var cs []claim
	for _, c := range claims() {
		if c.name == "loss" || c.name == "exchange" {
			c.dur = goldenDur()
			cs = append(cs, c)
		}
	}
	at := func(workers int) []byte {
		defer SetParallelism(SetParallelism(workers))
		return seedTable(cs, 2)
	}
	if serial, parallel := at(1), at(4); !bytes.Equal(serial, parallel) {
		t.Errorf("seed sweep differs between 1 and 4 workers\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// col reads the cells of the column headed name, and statOf the value printed
// under the table as name, failing when the sweep has no such column (or two)
// or value, or it is not a T.
func col[T any](t checker, s *Sweep, name string) []T {
	t.Helper()
	v, err := Col[T](s, name)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return v
}

func statOf[T any](t checker, s *Sweep, name string) T {
	t.Helper()
	v, err := Stat[T](s, name)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return v
}

// estLat is an estimate's latency, 0 when it abstained.
func estLat(e core.Estimate) time.Duration {
	if !e.Valid {
		return 0
	}
	return e.Latency
}

// checkFig2: the bare-metal/VM outcome flip at the fixed load — same
// server-side behaviour, opposite best batching mode.
func checkFig2(t checker, s *Sweep) {
	nagle, cli, srv := col[string](t, s, "nagle"), col[float64](t, s, "cliCPU"), col[float64](t, s, "srvCPU")
	off, on := col[time.Duration](t, s, "lat (off)"), col[time.Duration](t, s, "lat (on)")
	if nagle[0] != "helps" {
		t.Errorf("bare metal: Nagle should help (off=%v on=%v)", off[0], on[0])
	}
	if nagle[1] == "helps" {
		t.Errorf("VM client: Nagle should hurt (off=%v on=%v)", off[1], on[1])
	}
	// Figure 2a: the VM client burns noticeably more CPU.
	if cli[1] < 1.3*cli[0] {
		t.Errorf("VM client CPU %.2f vs bare %.2f: expected a clear increase", cli[1], cli[0])
	}
	// Figure 2b: the server sees the same workload either way.
	ratio := srv[1] / srv[0]
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("server CPU changed with client config: %.2f vs %.2f", srv[1], srv[0])
	}
}

// checkFig4a: batching hurts at low load, wins past a cutoff and extends the
// SLO range, and the estimates find the same cutoff.
func checkFig4a(t checker, s *Sweep) {
	off, on := col[time.Duration](t, s, "meas off"), col[time.Duration](t, s, "meas on")
	if on[0] <= off[0] {
		t.Errorf("at 5k: batching should hurt (off=%v on=%v)", off[0], on[0])
	}
	if on[4]*3 >= off[4] {
		t.Errorf("at 70k: batching should win by >3x (off=%v on=%v)", off[4], on[4])
	}

	// The stats under the table read in kRPS.
	measCut, estCut := statOf[float64](t, s, "measured cutoff"), statOf[float64](t, s, "estimated cutoff")
	if measCut == 0 || estCut == 0 {
		t.Fatalf("cutoffs missing: measured=%v estimated=%v", measCut, estCut)
	}
	if math.Abs(measCut-estCut) > 15 {
		t.Errorf("cutoffs diverge: measured=%v estimated=%v", measCut, estCut)
	}
	offMax, onMax := statOf[float64](t, s, "off SLO max"), statOf[float64](t, s, "on SLO max")
	if offMax > 40 {
		t.Errorf("off-mode SLO range extends to %vk, want <= 40k", offMax)
	}
	if onMax < 70 {
		t.Errorf("on-mode SLO range only %vk, want >= 70k", onMax)
	}
	x, g := statOf[float64](t, s, "extension"), statOf[float64](t, s, "latency gain")
	if x < 1.5 {
		t.Errorf("SLO extension %.2fx, want >= 1.5x (paper: 1.93x)", x)
	}
	if g < 1.2 {
		t.Errorf("latency gain at boundary %.2fx, want >= 1.2x (paper: 2.80x)", g)
	}

	// Estimates must be valid at every swept point and track the
	// measured value tightly once queueing dominates.
	estOff, estOn := col[core.Estimate](t, s, "est(B) off"), col[core.Estimate](t, s, "est(B) on")
	for i, r := range s.Rows {
		if !estOff[i].Valid || !estOn[i].Valid {
			t.Fatalf("invalid byte estimate at %v", r.Specs[0].Rate)
		}
	}
	// 85 kRPS, deep saturation.
	e := relErr(estOff[5].Latency, off[5])
	if e > 0.30 {
		t.Errorf("saturated estimate error %.0f%%, want <= 30%%", 100*e)
	}
}

// checkHeadline: the Figure 4a ordering claims hold for seeds other than
// the one the tables use, on rows of 5 and 60 kRPS with arms off and on.
func checkHeadline(t checker, s *Sweep) {
	seed := s.Rows[0].Specs[0].Seed
	m := func(row, arm int) time.Duration { return s.Rows[row].Runs[arm].Res.Latency.Mean() }
	e := func(row, arm int) time.Duration { return s.Rows[row].Runs[arm].Est[0].Latency }
	if m(0, 1) <= m(0, 0) {
		t.Errorf("seed %d: batching should hurt at 5k (off=%v on=%v)", seed, m(0, 0), m(0, 1))
	}
	if m(1, 1)*3 >= m(1, 0) {
		t.Errorf("seed %d: batching should win >3x at 60k (off=%v on=%v)", seed, m(1, 0), m(1, 1))
	}
	// Estimate ordering must match measured ordering at both ends.
	if (e(0, 1) < e(0, 0)) != (m(0, 1) < m(0, 0)) {
		t.Errorf("seed %d: estimate ordering wrong at 5k", seed)
	}
	if (e(1, 1) < e(1, 0)) != (m(1, 1) < m(1, 0)) {
		t.Errorf("seed %d: estimate ordering wrong at 60k", seed)
	}
}

// checkFig4b: the 95:5 mix sweep produces valid estimates, a cutoff, and
// per-kind splits.
func checkFig4b(t checker, s *Sweep) {
	if statOf[float64](t, s, "measured cutoff") == 0 {
		t.Fatalf("no measured cutoff on the mixed sweep")
	}
	// The per-kind split is no column: it is read from the runs.
	kind := func(r Row, arm, k int) time.Duration {
		if h := r.Runs[arm].Res.ByKind[k]; h != nil {
			return h.Mean()
		}
		return 0
	}
	for _, r := range s.Rows {
		if kind(r, 0, loadgen.KindSet) == 0 || kind(r, 0, loadgen.KindGet) == 0 {
			t.Fatalf("per-kind latencies missing at %v", r.Specs[0].Rate)
		}
		if !r.Runs[0].Est[tcpsim.UnitBytes].Valid || !r.Runs[1].Est[tcpsim.UnitBytes].Valid {
			t.Fatalf("invalid estimate at %v", r.Specs[0].Rate)
		}
	}
	// GETs (tiny requests, 16 KiB responses) must be cheaper than SETs
	// without batching at low load.
	get, set := kind(s.Rows[0], 0, loadgen.KindGet), kind(s.Rows[0], 0, loadgen.KindSet)
	if get >= set {
		t.Errorf("at 5k off: GET %v should beat SET %v", get, set)
	}
}

// checkToggle: the toggler lands near whichever static mode wins at each
// load — the paper's core "what if" as a closed loop.
func checkToggle(t checker, s *Sweep) {
	off, on, dyn := col[time.Duration](t, s, "off"), col[time.Duration](t, s, "on"), col[time.Duration](t, s, "dynamic")
	share := col[float64](t, s, "on-share") // percent
	slo := s.Rows[0].Specs[0].Calib.SLO

	// The paper's success criterion is its own policy statement:
	// "maximize throughput as long as latency remains below a specified
	// threshold" (§2). At 10k both static modes meet the SLO, so the
	// toggler may sit anywhere; at 50k only batch-on does, so the
	// toggler must live there and keep the run under the SLO despite
	// exploration excursions through the unstable mode.
	if dyn[0] > slo {
		t.Errorf("at 10k dynamic %v violates the %v SLO", dyn[0], slo)
	}
	best := min(off[0], on[0])
	if dyn[0] > 5*best/2 {
		t.Errorf("at 10k dynamic %v vs best static %v", dyn[0], best)
	}
	if off[1] <= slo {
		t.Errorf("at 50k static-off %v unexpectedly meets the SLO", off[1])
	}
	if dyn[1] > slo {
		t.Errorf("at 50k dynamic %v violates the %v SLO (static-on achieves %v)", dyn[1], slo, on[1])
	}
	if share[1] < 60 {
		t.Errorf("at 50k batch-on residency = %.0f%%, want > 60%%", share[1])
	}
	if dyn[1]*5 > off[1] {
		t.Errorf("at 50k dynamic %v should be >=5x below static-off %v", dyn[1], off[1])
	}
}

// checkHints: §3.3 — with a syscall-batching client on the 95:5 mix every
// kernel-side unit drifts, while the hints stay within a few percent.
func checkHints(t checker, s *Sweep) {
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	meas, hints := col[time.Duration](t, s, "measured"), col[core.Estimate](t, s, "hints")
	for i, r := range s.Rows {
		rate, on := r.Specs[0].Rate, r.Specs[0].BatchOn
		hintErr := relErr(estLat(hints[i]), meas[i])
		if hintErr > 0.05 {
			t.Errorf("rate %v on=%v: hint error %.0f%%, want <= 5%%", rate, on, 100*hintErr)
		}
		for u := tcpsim.Unit(0); u < tcpsim.NumUnits; u++ {
			kernErr := relErr(estLat(col[core.Estimate](t, s, u.String())[i]), meas[i])
			if kernErr < 0.15 {
				t.Errorf("rate %v on=%v unit %v: kernel-unit error %.0f%% unexpectedly low — semantic gap should show", rate, on, u, 100*kernErr)
			}
		}
	}
}

// checkAIMD: §5's AIMD decays to NODELAY at low load and grows the cork to
// near batch-on latency at high load.
func checkAIMD(t checker, s *Sweep) {
	off, on, aimd := col[time.Duration](t, s, "off"), col[time.Duration](t, s, "on"), col[time.Duration](t, s, "aimd")
	cork := col[int](t, s, "final cork")
	if cork[0] > 1448 {
		t.Errorf("at 10k final cork = %d, want floor (1448)", cork[0])
	}
	if aimd[0] > off[0]+off[0]/4 {
		t.Errorf("at 10k AIMD %v should track static-off %v", aimd[0], off[0])
	}
	if cork[1] <= 1448 {
		t.Errorf("at 60k final cork = %d, want grown above the floor", cork[1])
	}
	if aimd[1]*5 > off[1] {
		t.Errorf("at 60k AIMD %v should be >=5x below static-off %v", aimd[1], off[1])
	}
	if aimd[1] > 3*on[1] {
		t.Errorf("at 60k AIMD %v vs static-on %v", aimd[1], on[1])
	}
}

// checkTick: §5 — fine ticks track the winning mode where the losing one
// collapses; very coarse ticks react too slowly within the run.
func checkTick(t checker, s *Sweep) {
	staticOn := s.Base.Runs[0].Res.Latency.Mean()
	dyn, share := col[time.Duration](t, s, "dynamic"), col[float64](t, s, "on-share") // percent
	if dyn[0] > 2*staticOn {
		t.Errorf("fine tick: dynamic %v vs static-on %v", dyn[0], staticOn)
	}
	if share[0] < 60 {
		t.Errorf("fine tick: on-share %.0f%%, want majority", share[0])
	}
	if share[1] >= share[0] {
		t.Errorf("coarse tick reacted as fast as fine: %.0f%% vs %.0f%%", share[1], share[0])
	}
	if dyn[1] <= dyn[0] {
		t.Errorf("coarse tick latency %v should exceed fine %v at this load", dyn[1], dyn[0])
	}
}

// checkExchange: §5 — the online estimate stays put while the exchange
// count drops by orders of magnitude.
func checkExchange(t checker, s *Sweep) {
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	ex, online, ticks := col[uint64](t, s, "exchanges"), col[time.Duration](t, s, "online est"), col[int](t, s, "ticks")
	if ticks[0] == 0 || online[0] == 0 {
		t.Fatalf("baseline produced no online estimates: %d ticks, %v", ticks[0], online[0])
	}
	for i := 1; i < len(s.Rows); i++ {
		iv, e := s.Rows[i].Specs[0].ExchangeInterval, relErr(online[i], online[0])
		if ex[i] >= ex[0]/10 {
			t.Errorf("interval %v: %d exchanges vs baseline %d — rate limit ineffective", iv, ex[i], ex[0])
		}
		if e > 0.10 {
			t.Errorf("interval %v: online estimate %v vs baseline %v (%.0f%% drift)", iv, online[i], online[0], 100*e)
		}
	}
}

// checkMultiConn: §3.2 — every connection's estimate is valid, their
// aggregate tracks the pooled latency, and one decision from it for all
// connections rescues the SLO.
func checkMultiConn(t checker, s *Sweep) {
	perConn := s.Base.Runs[0].conns
	if len(perConn) != 4 {
		t.Fatalf("per-conn estimates = %d", len(perConn))
	}
	for i, e := range perConn {
		if !e.Valid {
			t.Fatalf("conn %d estimate invalid", i)
		}
	}
	agg := statOf[core.Estimate](t, s, "aggregate")
	if !agg.Valid {
		t.Fatalf("aggregate invalid")
	}
	measured, dynamic := statOf[time.Duration](t, s, "measured"), statOf[time.Duration](t, s, "dynamic")
	// Deep in overload, queueing dominates and the aggregate must track
	// the measured mean closely.
	e := relErr(agg.Latency, measured)
	if e > 0.25 {
		t.Errorf("aggregate %v vs measured %v (%.0f%% error)", agg.Latency, measured, 100*e)
	}
	// Aggregate-driven toggling across all four connections must rescue
	// the workload from the multi-ms collapse.
	slo, share := s.Base.Specs[0].Calib.SLO, statOf[float64](t, s, "on-share")
	if dynamic > slo {
		t.Errorf("dynamic mean %v violates SLO %v", dynamic, slo)
	}
	if share < 60 {
		t.Errorf("batch-on residency %.0f%%, want majority", share)
	}
	if dynamic*10 > measured {
		t.Errorf("dynamic %v should be >=10x below static-off %v", dynamic, measured)
	}
	// The per-connection estimates should be mutually consistent (same
	// workload share): max/min within 2x.
	lo, hi := perConn[0].Latency, perConn[0].Latency
	for _, e := range perConn[1:] {
		lo, hi = min(lo, e.Latency), max(hi, e.Latency)
	}
	if hi > 2*lo {
		t.Errorf("per-conn estimates diverge: min %v max %v", lo, hi)
	}
}

// checkAggregate: the aggregate's throughput is the sum of the
// per-connection throughputs.
func checkAggregate(t checker, s *Sweep) {
	var sum float64
	for _, e := range s.Base.Runs[0].conns {
		sum += e.Throughput
	}
	agg := statOf[core.Estimate](t, s, "aggregate")
	if agg.Throughput != sum {
		t.Fatalf("aggregate throughput %v != sum %v", agg.Throughput, sum)
	}
}

// checkCScan: Figure 1's c-axis in the full system — batching helps the fast
// client and hurts once it is slow enough.
func checkCScan(t checker, s *Sweep) {
	verdict := col[string](t, s, "batching")
	off, on := col[time.Duration](t, s, "lat (off)"), col[time.Duration](t, s, "lat (on)")
	last := len(s.Rows) - 1
	if verdict[0] != "helps" {
		t.Errorf("scale 1: batching should help (off=%v on=%v)", off[0], on[0])
	}
	if verdict[last] == "helps" {
		t.Errorf("scale %.1f: batching should hurt (off=%v on=%v)", s.Rows[last].Specs[0].ClientScale, off[last], on[last])
	}
	flip := statOf[float64](t, s, "flip scale")
	if flip <= 1 || flip > 2 {
		t.Errorf("flip scale = %v, want within (1, 2]", flip)
	}
}

// checkBandits: both bandits hold the mid-load point where batching clearly
// wins (UCB1 re-probes the losing mode far more: its overload scores break
// its bounded-reward assumption).
func checkBandits(t checker, s *Sweep) {
	slo, eps, ucb := s.Rows[0].Specs[0].Calib.SLO, col[time.Duration](t, s, "ε-greedy")[0], col[time.Duration](t, s, "ucb1")[0]
	if eps > slo {
		t.Errorf("ε-greedy %v violates SLO at 45k", eps)
	}
	if ucb > slo {
		t.Errorf("UCB1 %v violates SLO at 45k", ucb)
	}
	// Both arms head an "on-share" column, so the residency is read from
	// the runs.
	epsOn, ucbOn := s.Rows[0].Runs[0].OnShare, s.Rows[0].Runs[1].OnShare
	if epsOn < 0.6 || ucbOn < 0.6 {
		t.Errorf("residency: eps %.0f%% ucb %.0f%%", 100*epsOn, 100*ucbOn)
	}
}

// checkLoss: under loss with recovery, measured and estimated latency
// inflate together rather than diverge.
func checkLoss(t checker, s *Sweep) {
	meas, est := col[time.Duration](t, s, "measured"), col[core.Estimate](t, s, "est (bytes)")
	if col[uint64](t, s, "retransmits")[1] == 0 {
		t.Fatalf("no retransmissions at 1%% loss")
	}
	if meas[1] < 5*meas[0] {
		t.Fatalf("1%% loss measured %v vs clean %v: recovery delay missing", meas[1], meas[0])
	}
	clean, lossy := estLat(est[0]), estLat(est[1])
	if lossy < 5*clean {
		t.Fatalf("1%% loss estimate %v vs clean %v: estimator blind to recovery", lossy, clean)
	}
	// Same order of magnitude: the estimate must track the blowup.
	e := relErr(lossy, meas[1])
	if e > 0.6 {
		t.Fatalf("lossy estimate %v vs measured %v (%.0f%%)", lossy, meas[1], 100*e)
	}
}

// degradedDur is the length of degradedSpec's runs: 120 ms in -short mode,
// where TestDegradedFallbackUnderLossAndMetaDrop reruns it under -race.
func degradedDur() time.Duration {
	if testing.Short() {
		return 120 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// degradedSpec is a dynamic run at 30 kRPS under a 5% loss burst combined
// with a full metadata-drop window. Both windows run past the end of the run
// (including its drain tail): the claim is what the policy does while
// degradation persists, not how it recovers after.
func degradedSpec(seed int64, dur time.Duration) RunSpec {
	plan := &faults.Plan{Name: "loss+metadrop", Events: []faults.Event{
		{Kind: faults.LossBurst, Start: dur / 5, Dur: 2 * dur, Prob: 0.05},
		{Kind: faults.MetaDrop, Start: dur / 5, Dur: 2 * dur, Prob: 1},
	}}
	cal := DefaultCalib()
	return RunSpec{Calib: cal, Seed: seed, Rate: 30000, Duration: dur, Dynamic: DefaultDynamicSpec(cal.SLO), Faults: plan}
}

// checkFaults: under degradedSpec the estimator says it is degraded (no NaN
// or garbage) and the policy retreats to and holds its safe default.
func checkFaults(t checker, s *Sweep) {
	a := s.Rows[0].Runs[0]
	checkChaosSane(t, "loss+metadrop", a)
	if a.DegradedTicks == 0 {
		t.Fatalf("estimator never reported degraded mode under metadata drops")
	}
	if a.TogglerStats.SafeFallbacks == 0 {
		t.Fatalf("policy never fell back to its safe default (stats %+v)", a.TogglerStats)
	}
	if a.FinalMode != policy.BatchOff {
		t.Fatalf("final mode = %v, want the safe default BatchOff held", a.FinalMode)
	}
}
