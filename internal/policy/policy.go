// Package policy turns end-to-end performance estimates into batching
// decisions — the "dynamic toggling" the paper sketches in §5: one
// explore/exploit loop over the two batching modes with an ε-greedy or a
// UCB1 choice rule, EWMA smoothing of noisy per-tick estimates, pluggable
// objectives that trade off throughput and latency (e.g. "maximize
// throughput as long as latency remains below a specified threshold", §2).
// The batch-limit controller of the "better batching heuristics" direction
// lives in the engine, which alone steps it.
package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"e2ebatch/internal/metrics"
)

// Objective scores an observed (latency, throughput) pair; higher is better.
type Objective interface {
	Score(latency time.Duration, throughput float64) float64
	Name() string
}

// PreferLatency optimizes average latency alone.
type PreferLatency struct{}

// Score returns the negated latency, so lower latency scores higher.
func (PreferLatency) Score(l time.Duration, _ float64) float64 { return -float64(l) }

// Name identifies the objective.
func (PreferLatency) Name() string { return "prefer-latency" }

// PreferThroughput optimizes throughput alone.
type PreferThroughput struct{}

// Score returns the throughput.
func (PreferThroughput) Score(_ time.Duration, tput float64) float64 { return tput }

// Name identifies the objective.
func (PreferThroughput) Name() string { return "prefer-throughput" }

// ThroughputUnderSLO maximizes throughput subject to a latency SLO: any
// observation meeting the SLO beats any observation violating it; within
// each class, more throughput / less violation is better. This is the
// paper's example policy (§2, §5) with the 500 µs SLO of §4.
type ThroughputUnderSLO struct {
	SLO time.Duration
}

// Score implements the lexicographic SLO-then-throughput ordering as a
// single scalar: SLO-meeting scores are positive and grow with throughput,
// violating scores are negative and shrink with the violation.
func (o ThroughputUnderSLO) Score(l time.Duration, tput float64) float64 {
	if o.SLO <= 0 {
		return tput
	}
	if l <= o.SLO {
		return 1 + tput
	}
	return -float64(l-o.SLO) / float64(o.SLO)
}

// Name identifies the objective.
func (o ThroughputUnderSLO) Name() string { return fmt.Sprintf("tput-under-%v", o.SLO) }

// QuantileUnderSLO maximizes throughput subject to a *tail* latency SLO:
// "p99 ≤ D_max" rather than "mean ≤ D_max". The scoring shape is identical
// to ThroughputUnderSLO's lexicographic ordering — the difference is purely
// which latency the caller feeds it: the engine, configured with a
// TailQuantile, passes the composed tail estimate's quantile instead of the
// mean, and routes ticks whose tail estimate abstained down the degraded
// path (ObserveDegraded), so a policy driven by this objective retreats to
// SafeMode whenever the tail it is supposed to bound becomes unobservable.
type QuantileUnderSLO struct {
	// Quantile is the targeted quantile, e.g. 0.99. It is carried here for
	// naming and for engine wiring validation; Score itself is agnostic —
	// the caller measures the quantile.
	Quantile float64
	// SLO is D_max: the bound the quantile must stay under.
	SLO time.Duration
}

// Score implements the same lexicographic SLO-then-throughput scalar as
// ThroughputUnderSLO, applied to a tail quantile observation.
func (o QuantileUnderSLO) Score(l time.Duration, tput float64) float64 {
	return ThroughputUnderSLO{SLO: o.SLO}.Score(l, tput)
}

// Name identifies the objective, e.g. "p99-under-500µs".
func (o QuantileUnderSLO) Name() string {
	return fmt.Sprintf("p%s-under-%v", quantileLabel(o.Quantile), o.SLO)
}

// quantileLabel renders 0.99 → "99", 0.999 → "999", 0.5 → "50".
func quantileLabel(q float64) string {
	switch {
	case q >= 0.999:
		return "999"
	case q >= 0.99:
		return "99"
	case q >= 0.9:
		return "90"
	default:
		return "50"
	}
}

// Mode is a batching mode.
type Mode int

const (
	// BatchOff means batching disabled (TCP_NODELAY set).
	BatchOff Mode = iota
	// BatchOn means batching enabled (Nagle active).
	BatchOn
)

// Other returns the opposite mode.
func (m Mode) Other() Mode { return 1 - m }

// String names the mode.
func (m Mode) String() string {
	if m == BatchOn {
		return "batch-on"
	}
	return "batch-off"
}

// TogglerConfig parameterizes the toggler. Epsilon, EpsilonDecay, MinSamples
// and Hysteresis shape the ε-greedy choice step; the UCB1 step ignores them.
type TogglerConfig struct {
	// Epsilon is the per-decision exploration probability.
	Epsilon float64
	// EpsilonDecay shrinks the effective exploration rate over time:
	// ε_t = Epsilon / (1 + EpsilonDecay·decisions). Exploring the losing
	// mode has a real cost (§5: "an overly heavy approach might nullify
	// the benefit of batching"), so once the scores are settled the
	// toggler probes less often. Zero keeps ε constant.
	EpsilonDecay float64
	// Alpha is the EWMA smoothing factor applied to per-mode scores
	// (§5 Toggling Granularity).
	Alpha float64
	// MinSamples is how many smoothed observations a mode needs before
	// its score is trusted for exploitation.
	MinSamples int
	// Hysteresis is the relative score margin the other mode must win by
	// before a non-exploratory switch, suppressing flapping on noise.
	Hysteresis float64
	// HoldTicks keeps the mode fixed for this many decisions after any
	// switch, so an explored mode is observed long enough to matter.
	HoldTicks int
	// SkipAfterSwitch discards this many post-switch observations: right
	// after a switch the estimate still reflects the previous mode's
	// backlog and would poison the new mode's score.
	SkipAfterSwitch int
	// SafeMode is the mode the toggler retreats to while the estimator is
	// degraded (see ObserveDegraded). The zero value, BatchOff, is the
	// conservative choice: without trustworthy latency estimates the
	// toggler cannot tell whether batching's hold delay is violating the
	// SLO, so it stops holding messages.
	SafeMode Mode
	// DegradedAfter is how many consecutive degraded observations the
	// toggler tolerates before retreating to SafeMode. A short run of
	// degraded ticks is normal (one dropped metadata exchange); a long run
	// means the peer's view is gone. Zero retreats on the first one.
	DegradedAfter int
}

// DefaultTogglerConfig returns the parameters used by the experiments.
func DefaultTogglerConfig() TogglerConfig {
	return TogglerConfig{
		Epsilon: 0.05, EpsilonDecay: 0.01, Alpha: 0.3, MinSamples: 3, Hysteresis: 0.05,
		HoldTicks: 5, SkipAfterSwitch: 2,
		SafeMode: BatchOff, DegradedAfter: 3,
	}
}

// Toggler is the on/off batching controller: one explore/exploit loop over
// the two modes (§5). Feed it one estimate per decision tick via Observe; it
// returns the mode to run next tick. The loop — EWMA scores, per-mode sample
// counts, the hold and skip windows after a switch, the degraded-input
// retreat — is shared; the choice step is one of two rules, picked by the
// constructor:
//
//   - ε-greedy (NewToggler): explore with probability ε, otherwise switch
//     only when the other mode's score wins by the Hysteresis margin;
//   - UCB1 (NewUCBToggler): the textbook bandit answer from the literature
//     the paper cites (§5 [5, 28]); it never draws from an rng.
//
// UCB1 picks the mode maximizing
//
//	norm(score(mode)) + √2 · sqrt(ln(totalSamples) / samples(mode))
//
// where norm maps scores onto [0, 1] by the observed range (UCB1 assumes
// bounded rewards), so the losing mode is re-probed at a logarithmically
// decaying rate with no exploration probability to tune.
//
// All methods are safe for concurrent use — decisions serialize on an
// internal mutex, so one controller can serve estimates arriving from many
// connections' goroutines. The rng passed to NewToggler is only ever used
// while that mutex is held; if it is shared with other code (e.g. the
// simulator's source), those other uses must run on the same goroutine as
// the Observe calls or be synchronized externally.
type Toggler struct {
	mu   sync.Mutex
	cfg  TogglerConfig
	obj  Objective
	rng  *rand.Rand // nil under the UCB1 rule
	ucb  bool
	mode Mode

	score   [2]*metrics.EWMA
	samples [2]int
	// lo and hi are the range of valid scores observed so far, which the
	// UCB1 rule normalizes by.
	lo, hi float64

	holdLeft    int
	skipLeft    int
	degradedRun int

	stats TogglerStats
}

// TogglerStats counts toggler activity.
type TogglerStats struct {
	Decisions    uint64
	Switches     uint64
	Explorations uint64
	Invalid      uint64
	// Degraded counts ObserveDegraded calls; SafeFallbacks counts the
	// times a degraded run actually forced a retreat to SafeMode.
	Degraded      uint64
	SafeFallbacks uint64
}

// NewToggler returns an ε-greedy toggler starting in initial mode. rng must
// be non-nil (pass the simulation's deterministic source).
func NewToggler(obj Objective, cfg TogglerConfig, initial Mode, rng *rand.Rand) *Toggler {
	if rng == nil {
		panic("policy: nil rng")
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		panic("policy: epsilon must be in [0,1]")
	}
	t := newToggler(obj, cfg, initial)
	t.rng = rng
	return t
}

// NewUCBToggler returns a UCB1 toggler starting in initial mode, with
// DefaultTogglerConfig's smoothing, hold, skip and degraded-input settings
// (its ε-greedy fields are unused).
func NewUCBToggler(obj Objective, initial Mode) *Toggler {
	t := newToggler(obj, DefaultTogglerConfig(), initial)
	t.ucb = true
	return t
}

func newToggler(obj Objective, cfg TogglerConfig, initial Mode) *Toggler {
	if obj == nil {
		panic("policy: nil objective")
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		panic("policy: alpha must be in (0,1]")
	}
	return &Toggler{
		cfg:   cfg,
		obj:   obj,
		mode:  initial,
		score: [2]*metrics.EWMA{metrics.NewEWMA(cfg.Alpha), metrics.NewEWMA(cfg.Alpha)},
	}
}

// Mode returns the currently selected batching mode.
func (t *Toggler) Mode() Mode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mode
}

// Stats returns a copy of the toggler's counters.
func (t *Toggler) Stats() TogglerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Observe feeds the estimate measured while running the current mode and
// decides the mode for the next interval. Invalid estimates (idle interval)
// leave the scores untouched but still allow exploration. Observations in
// the SkipAfterSwitch window after a switch are discarded, and the mode is
// pinned for HoldTicks decisions following a switch.
func (t *Toggler) Observe(latency time.Duration, throughput float64, valid bool) Mode {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Decisions++
	t.degradedRun = 0
	switch {
	case t.skipLeft > 0:
		t.skipLeft--
	case valid:
		s := t.obj.Score(latency, throughput)
		if t.samples[0]+t.samples[1] == 0 {
			t.lo, t.hi = s, s
		} else if s < t.lo {
			t.lo = s
		} else if s > t.hi {
			t.hi = s
		}
		t.score[t.mode].Update(s)
		t.samples[t.mode]++
	default:
		t.stats.Invalid++
	}

	if t.holdLeft > 0 {
		t.holdLeft--
		return t.mode
	}
	var next Mode
	if t.ucb {
		next = t.ucb1()
	} else {
		next = t.epsGreedy()
	}
	if next != t.mode {
		t.switchTo(next)
	}
	return t.mode
}

// epsGreedy is the ε-greedy choice step: explore with the (decaying)
// probability ε, otherwise exploit once both modes have MinSamples, switching
// only past the Hysteresis margin.
func (t *Toggler) epsGreedy() Mode {
	eps := t.cfg.Epsilon
	if t.cfg.EpsilonDecay > 0 {
		eps /= 1 + t.cfg.EpsilonDecay*float64(t.stats.Decisions)
	}
	other := t.mode.Other()
	switch {
	case t.rng.Float64() < eps:
		t.stats.Explorations++
		return other
	case t.samples[other] >= t.cfg.MinSamples && t.samples[t.mode] >= t.cfg.MinSamples:
		cur := t.score[t.mode].Value()
		if t.score[other].Value() > cur+t.cfg.Hysteresis*math.Abs(cur) {
			return other
		}
	}
	return t.mode
}

// ucb1 is the UCB1 choice step. A mode never sampled has an infinite
// confidence bonus, so it is tried as soon as the current mode has a sample.
func (t *Toggler) ucb1() Mode {
	other := t.mode.Other()
	if t.samples[other] == 0 {
		if t.samples[t.mode] > 0 {
			t.stats.Explorations++
			return other
		}
		return t.mode
	}
	total := float64(t.samples[0] + t.samples[1])
	if t.ucbIndex(other, total) > t.ucbIndex(t.mode, total) {
		return other
	}
	return t.mode
}

// ucbIndex is mode m's normalized UCB1 index.
func (t *Toggler) ucbIndex(m Mode, total float64) float64 {
	norm := 0.5
	if t.hi > t.lo {
		norm = (t.score[m].Value() - t.lo) / (t.hi - t.lo)
	}
	return norm + math.Sqrt2*math.Sqrt(math.Log(total)/float64(t.samples[m]))
}

// switchTo changes the mode and opens the post-switch hold and skip windows.
func (t *Toggler) switchTo(m Mode) {
	t.stats.Switches++
	t.mode = m
	t.holdLeft = t.cfg.HoldTicks
	t.skipLeft = t.cfg.SkipAfterSwitch
}

// ObserveDegraded is the decision tick for intervals where the estimate was
// degraded (peer metadata missing or stale, Estimate.Degraded). A degraded
// estimate reflects only the local half of the paper's §3.2 formula, so it
// must not train the per-mode scores, and exploring on top of it would mean
// switching modes while blind. Instead the toggler freezes: scores and
// exploration are untouched, and after DegradedAfter consecutive degraded
// ticks it retreats to SafeMode and holds there until trustworthy estimates
// return via Observe (which resets the run).
func (t *Toggler) ObserveDegraded() Mode {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Decisions++
	t.stats.Degraded++
	t.degradedRun++
	if t.degradedRun > t.cfg.DegradedAfter && t.mode != t.cfg.SafeMode {
		t.stats.SafeFallbacks++
		t.switchTo(t.cfg.SafeMode)
	}
	return t.mode
}
