// Package faults injects composable, deterministic failures into a
// simulated run of the batching stack: loss bursts and jitter ramps on the
// netem link, drop/delay/duplication of the 36-byte metadata exchanges the
// estimator depends on (§3.2), peer reader stalls, and connection resets.
//
// A Plan is declarative — a named list of timed fault windows — so the same
// plan replays byte-identically under the same seed, and the chaos soak
// tests can pin exact outputs. Apply schedules everything on the simulated
// clock; nothing in this package reads wall time or global randomness.
//
// Each fault targets a specific paper mechanism:
//
//   - LossBurst / JitterRamp stress the transport under the exchange
//     piggybacking of §5 Metadata Exchange: lost segments carry lost
//     exchanges, and the estimator's view of the peer ages.
//   - MetaDrop / MetaDelay / MetaDup attack the exchange channel alone —
//     the wire stays healthy but the peer's counters go missing, arrive
//     late (out of order), or replay with stale values, exercising the
//     wrap-aware delta rejection in qstate.WireAvgs and the estimator's
//     MaxRemoteAge staleness fallback.
//   - PeerStall freezes the server application's socket draining, growing
//     the unread queue the §3.2 formula's remote terms measure.
//   - Reset models a connection teardown/re-establishment: counters
//     restart, so the estimator must be re-primed (Estimator.Reset).
package faults

import (
	"fmt"
	"time"

	"e2ebatch/internal/netem"
	"e2ebatch/internal/qstate"
	"e2ebatch/internal/sim"
	"e2ebatch/internal/tcpsim"
)

// Kind identifies one fault mechanism.
type Kind int

const (
	// LossBurst raises the link's packet-loss probability to Prob for the
	// window, then restores the pre-window value.
	LossBurst Kind = iota
	// JitterRamp ramps the link's jitter bound linearly from its baseline
	// to Delay over the window, then restores the baseline.
	JitterRamp
	// MetaDrop discards each arriving metadata exchange with probability
	// Prob during the window.
	MetaDrop
	// MetaDelay defers applying each arriving exchange by Delay during
	// the window, so old state can land after newer state.
	MetaDelay
	// MetaDup replays each arriving exchange a second time Delay later
	// with probability Prob — stale counters under a fresh timestamp.
	MetaDup
	// PeerStall stops the server application from draining its socket for
	// the window; unread piles up until the advertised window closes.
	PeerStall
	// Reset fires a connection-reset notification at Start (Dur unused):
	// the run's reset hook must resynchronize anything keyed to the
	// connection's counters, e.g. re-prime the estimator.
	Reset

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LossBurst:
		return "loss-burst"
	case JitterRamp:
		return "jitter-ramp"
	case MetaDrop:
		return "meta-drop"
	case MetaDelay:
		return "meta-delay"
	case MetaDup:
		return "meta-dup"
	case PeerStall:
		return "peer-stall"
	case Reset:
		return "reset"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault window. Start is the offset from Apply; Dur the
// window length (ignored for Reset, which is instantaneous). Prob and Delay
// parameterize the kinds that need them; unused fields stay zero.
type Event struct {
	Kind  Kind
	Start time.Duration
	Dur   time.Duration
	Prob  float64
	Delay time.Duration
}

// End returns the event's deactivation offset.
func (e Event) End() time.Duration {
	if e.Kind == Reset {
		return e.Start
	}
	return e.Start + e.Dur
}

// Plan is a named, declarative fault schedule.
type Plan struct {
	Name   string
	Events []Event
}

// Validate checks the plan's internal consistency and returns the first
// problem found. Beyond per-event range checks it rejects overlapping
// windows of the same kind: the injector restores pre-window baselines at
// deactivation, and overlapping same-kind windows would make "baseline"
// ambiguous (crossing windows of different kinds compose fine).
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.Kind < 0 || ev.Kind >= numKinds {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(ev.Kind))
		}
		if ev.Start < 0 {
			return fmt.Errorf("faults: event %d (%v): negative start %v", i, ev.Kind, ev.Start)
		}
		if ev.Kind != Reset && ev.Dur <= 0 {
			return fmt.Errorf("faults: event %d (%v): non-positive duration %v", i, ev.Kind, ev.Dur)
		}
		switch ev.Kind {
		case LossBurst:
			if ev.Prob < 0 || ev.Prob >= 1 {
				return fmt.Errorf("faults: event %d (%v): prob %v outside [0, 1)", i, ev.Kind, ev.Prob)
			}
		case MetaDrop, MetaDup:
			if ev.Prob < 0 || ev.Prob > 1 {
				return fmt.Errorf("faults: event %d (%v): prob %v outside [0, 1]", i, ev.Kind, ev.Prob)
			}
		}
		switch ev.Kind {
		case JitterRamp, MetaDelay, MetaDup:
			if ev.Delay <= 0 {
				return fmt.Errorf("faults: event %d (%v): non-positive delay %v", i, ev.Kind, ev.Delay)
			}
		}
		for j, other := range p.Events[:i] {
			if other.Kind != ev.Kind || ev.Kind == Reset {
				continue
			}
			if ev.Start < other.End() && other.Start < ev.End() {
				return fmt.Errorf("faults: events %d and %d: overlapping %v windows", j, i, ev.Kind)
			}
		}
	}
	return nil
}

// NeedsRTO reports whether the plan requires retransmission recovery on the
// connection: any loss window does — tcpsim treats a sequence hole without
// an RTO as a model bug.
func (p *Plan) NeedsRTO() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if ev.Kind == LossBurst {
			return true
		}
	}
	return false
}

// Staller is the peer application whose socket draining PeerStall freezes.
// tcpsim.SimServer implements it; the indirection keeps this package free of
// an application-layer dependency.
type Staller interface {
	Stall(bool)
}

// Targets wires a plan to one run's components. Nil fields disable the
// faults needing them (Apply reports which events were skipped via OnFault
// with kind "skipped").
type Targets struct {
	// Link carries LossBurst and JitterRamp.
	Link *netem.Link
	// Client receives the metadata faults: it is the endpoint whose
	// PeerWireState feeds the policy-driving estimator.
	Client *tcpsim.Conn
	// Staller receives PeerStall.
	Staller Staller
	// OnReset fires at each Reset event — re-prime estimators here.
	OnReset func()
	// OnFault, if set, observes every fault transition: kind is the
	// Kind's String (or "skipped"), detail a human-readable parameter
	// summary. Tests observe the transitions through it.
	OnFault func(kind, detail string)
}

// Injector is the runtime of an applied plan. All state transitions run on
// the simulator's event loop at their scheduled virtual times.
type Injector struct {
	sim *sim.Sim
	t   Targets

	baseLoss   float64
	baseJitter time.Duration

	// Active metadata-fault parameters; zero means the window is closed.
	// Validate's no-same-kind-overlap rule means a scalar per kind
	// suffices.
	dropProb float64
	delayBy  time.Duration
	dupProb  float64
	dupDelay time.Duration

	activations [numKinds]int
}

// Activations returns how many windows of kind k have activated so far.
func (inj *Injector) Activations(k Kind) int {
	if k < 0 || k >= numKinds {
		return 0
	}
	return inj.activations[k]
}

// jitterRampSteps is how many discrete increments approximate a ramp.
const jitterRampSteps = 8

// Apply validates the plan and schedules every event on s, returning the
// injector. A nil or empty plan is a no-op (returns an inert injector).
// Apply must be called before s runs past the earliest event start.
func Apply(s *sim.Sim, p *Plan, t Targets) (*Injector, error) {
	inj := &Injector{sim: s, t: t}
	if p == nil || len(p.Events) == 0 {
		return inj, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	needsConn := false
	for _, ev := range p.Events {
		ev := ev
		switch ev.Kind {
		case LossBurst, JitterRamp:
			if t.Link == nil {
				inj.skip(ev)
				continue
			}
		case MetaDrop, MetaDelay, MetaDup:
			if t.Client == nil {
				inj.skip(ev)
				continue
			}
			needsConn = true
		case PeerStall:
			if t.Staller == nil {
				inj.skip(ev)
				continue
			}
		}
		inj.schedule(ev)
	}
	if needsConn {
		t.Client.SetStateFault(inj.stateFault)
	}
	return inj, nil
}

// MustApply is Apply for static plans known valid, e.g. the Standard set.
func MustApply(s *sim.Sim, p *Plan, t Targets) *Injector {
	inj, err := Apply(s, p, t)
	if err != nil {
		panic(err)
	}
	return inj
}

func (inj *Injector) skip(ev Event) {
	inj.emit("skipped", fmt.Sprintf("%v at %v: no target", ev.Kind, ev.Start))
}

func (inj *Injector) emit(kind, detail string) {
	if inj.t.OnFault != nil {
		inj.t.OnFault(kind, detail)
	}
}

func (inj *Injector) schedule(ev Event) {
	inj.sim.After(ev.Start, func() { inj.activate(ev) })
	if ev.Kind != Reset {
		inj.sim.After(ev.End(), func() { inj.deactivate(ev) })
	}
}

func (inj *Injector) activate(ev Event) {
	inj.activations[ev.Kind]++
	switch ev.Kind {
	case LossBurst:
		inj.baseLoss = inj.t.Link.AtoB.LossProb()
		inj.t.Link.SetLossProb(ev.Prob)
		inj.emit(ev.Kind.String(), fmt.Sprintf("on prob=%v dur=%v", ev.Prob, ev.Dur))
	case JitterRamp:
		inj.baseJitter = inj.t.Link.AtoB.Jitter()
		inj.rampJitter(ev, 1)
		inj.emit(ev.Kind.String(), fmt.Sprintf("on peak=%v dur=%v", ev.Delay, ev.Dur))
	case MetaDrop:
		inj.dropProb = ev.Prob
		inj.emit(ev.Kind.String(), fmt.Sprintf("on prob=%v dur=%v", ev.Prob, ev.Dur))
	case MetaDelay:
		inj.delayBy = ev.Delay
		inj.emit(ev.Kind.String(), fmt.Sprintf("on delay=%v dur=%v", ev.Delay, ev.Dur))
	case MetaDup:
		inj.dupProb, inj.dupDelay = ev.Prob, ev.Delay
		inj.emit(ev.Kind.String(), fmt.Sprintf("on prob=%v delay=%v dur=%v", ev.Prob, ev.Delay, ev.Dur))
	case PeerStall:
		inj.t.Staller.Stall(true)
		inj.emit(ev.Kind.String(), fmt.Sprintf("on dur=%v", ev.Dur))
	case Reset:
		if inj.t.OnReset != nil {
			inj.t.OnReset()
		}
		inj.emit(ev.Kind.String(), "fired")
	}
}

// rampJitter applies ramp step i of jitterRampSteps and schedules the next;
// the final step holds until deactivation restores the baseline.
func (inj *Injector) rampJitter(ev Event, step int) {
	inj.t.Link.SetJitter(inj.baseJitter + time.Duration(int64(ev.Delay)*int64(step)/jitterRampSteps))
	if step >= jitterRampSteps {
		return
	}
	inj.sim.After(ev.Dur/jitterRampSteps, func() { inj.rampJitter(ev, step+1) })
}

func (inj *Injector) deactivate(ev Event) {
	switch ev.Kind {
	case LossBurst:
		inj.t.Link.SetLossProb(inj.baseLoss)
	case JitterRamp:
		inj.t.Link.SetJitter(inj.baseJitter)
	case MetaDrop:
		inj.dropProb = 0
	case MetaDelay:
		inj.delayBy = 0
	case MetaDup:
		inj.dupProb, inj.dupDelay = 0, 0
	case PeerStall:
		inj.t.Staller.Stall(false)
	}
	inj.emit(ev.Kind.String(), "off")
}

// stateFault is the single metadata-fault arbiter installed on the client
// connection; active windows compose, with drop taking precedence (a packet
// that was dropped cannot also arrive late or twice).
func (inj *Injector) stateFault(qstate.WireState) tcpsim.StateFaultAction {
	var act tcpsim.StateFaultAction
	if inj.dropProb > 0 && inj.sim.Rand().Float64() < inj.dropProb {
		act.Drop = true
		return act
	}
	if inj.delayBy > 0 {
		act.Delay = inj.delayBy
	}
	if inj.dupProb > 0 && inj.sim.Rand().Float64() < inj.dupProb {
		act.Duplicate = true
		act.DupDelay = inj.dupDelay
	}
	return act
}
