// Closed-loop adaptive accuracy (the feedback half of the intent
// pipeline): intents declare a tolerated error, the analyzer measures
// the error its merged sketches actually admit, and the Refiner drives
// the width ladder in reverse — widening queries whose observed bound
// exceeds tolerance and narrowing over-provisioned ones — through the
// controller's in-place resize, so the fleet converges to the cheapest
// geometry that honors every intent instead of provisioning for the
// worst case.
package orchestrator

import (
	"fmt"
	"sort"
	"sync"

	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
)

// RefineFleet is the orchestrator surface the refiner drives.
// *Orchestrator satisfies it; tests substitute fakes.
type RefineFleet interface {
	Intents() []Intent
	Deployed() map[string]QueryPlan
	QID(name string) int
	SetWidthCap(name string, w uint32)
	Converge() (*Plan, Diff, error)
}

// AccuracySource is the analyzer surface the refiner reads its error
// feedback from. *telemetry.Service satisfies it.
type AccuracySource interface {
	LatestSettledEpoch(qid int) (uint32, bool)
	ObservedAccuracy(qid int, epoch uint32, scale uint64) (telemetry.QueryAccuracy, bool)
}

// The hysteresis. Every count is in SETTLED epochs — merges with every
// contributor present and no width transition — so wall-clock speed
// never changes the control behavior: the refiner reads no clock. They are constants because
// one value of each has ever been in use: a second caller that needs
// another is the reason to make one a field again.
const (
	// widenAfter is how many consecutive settled epochs the observed
	// error must exceed tolerance before the refiner widens. Low: an
	// under-provisioned query is WRONG right now (widen-fast).
	widenAfter = 2
	// narrowAfter is how many consecutive settled epochs the query must
	// look over-provisioned before the refiner narrows. High: narrowing
	// merely saves memory, and a premature narrow flaps (narrow-slow).
	narrowAfter = 6
	// narrowMargin discounts the tolerance when judging a narrow: the
	// predicted error at the next rung down must stay within
	// narrowMargin·MaxRelErr, leaving headroom for stream growth.
	narrowMargin = 0.6
	// cooldownEpochs is how many settled epochs after any resize the
	// refiner ignores a query — the first post-resize epochs measure a
	// half-filled sketch.
	cooldownEpochs = 2
	// flapEpochs is the settled-epoch window within which a direction
	// reversal (widen after narrow or vice versa) counts as a flap.
	flapEpochs = 4
	// rejectHold is how many settled epochs a rung the admission planner
	// refused stays remembered: until it expires the refiner will not bid
	// for that rung (or above) again, so a rejected widen cannot
	// retry-storm. 300 is 30 s at netsim's default 100 ms window.
	rejectHold = 300
)

// RefinerConfig is empty: the refiner has nothing a caller substitutes.
// It stays because benchmark/ passes RefinerConfig{} to NewRefiner.
type RefinerConfig struct{}

// RefineEvent is one control decision, for operators and tests. Epoch
// is the settled epoch it was taken on.
type RefineEvent struct {
	Query    string
	QID      int
	Epoch    uint32
	Action   string // "widen", "narrow", "reject", "flap"
	From, To uint32
	Observed float64
	Target   float64
}

func (e RefineEvent) String() string {
	return fmt.Sprintf("%-7s %s (qid %d, epoch %d) width %d -> %d (observed %.3g, target %.3g)",
		e.Action, e.Query, e.QID, e.Epoch, e.From, e.To, e.Observed, e.Target)
}

// QueryRefineState is one query's control-loop snapshot.
type QueryRefineState struct {
	Query    string
	QID      int
	Width    uint32
	Epoch    uint32
	Observed float64
	Target   float64
	InBand   bool

	OverRuns, UnderRuns      int
	Widens, Narrows, Resizes int
	Flaps                    int
	Rejected                 uint32 // remembered refused rung (0 when none)
	LastAction               string
}

// qState is one query's hysteresis memory: the snapshot States reports
// is the state the machine runs on, plus what only the machine needs.
type qState struct {
	QueryRefineState
	hasEpoch bool // Epoch holds a settled epoch already processed
	seq      int  // settled epochs processed

	cooldownUntil int // seq until which observations are ignored
	lastDir       int // +1 widen, -1 narrow
	lastDirSeq    int
	rejectedUntil int // seq after which Rejected is forgotten
}

// Refiner closes the accuracy loop: Step reads each accuracy-enabled
// intent's newest settled error estimate and, with hysteresis, resizes
// the deployment through the fleet's width-cap + converge path. Step is
// the only entry point: callers own the cadence.
type Refiner struct {
	fleet RefineFleet
	src   AccuracySource

	mu     sync.Mutex
	states map[string]*qState
	// deployed is the fleet's deployment as of the pass in progress (nil
	// between passes): read once a pass and again after each resize, the
	// only thing a pass does that changes it.
	deployed map[string]QueryPlan
}

// NewRefiner builds the control loop over a fleet and its analyzer.
func NewRefiner(fleet RefineFleet, src AccuracySource, _ RefinerConfig) *Refiner {
	return &Refiner{fleet: fleet, src: src, states: map[string]*qState{}}
}

// StepReport summarizes one control pass.
type StepReport struct {
	Examined int // accuracy-enabled intents with a new settled epoch
	Events   []RefineEvent
}

// Step runs one control pass. Each accuracy-enabled, deployed intent is
// examined only when the analyzer has a NEW settled epoch for it —
// partial and width-transition epochs never drive a decision. A query
// whose intent was withdrawn is forgotten. Returns the decisions taken;
// a converge error aborts the pass.
func (r *Refiner) Step() (StepReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rep StepReport
	intents := r.fleet.Intents()
	for name := range r.states {
		if !hasIntent(intents, name) {
			delete(r.states, name)
		}
	}
	r.deployed = r.fleet.Deployed()
	defer func() { r.deployed = nil }()
	for _, in := range intents {
		if !in.Accuracy.Enabled() || in.Query == nil {
			continue
		}
		name := in.Query.Name
		qid := r.fleet.QID(name)
		if qid == 0 {
			continue // not deployed (rejected, or not yet applied)
		}
		st := r.states[name]
		if st == nil || st.QID != qid {
			st = &qState{QueryRefineState: QueryRefineState{Query: name, QID: qid}}
			r.states[name] = st
		}
		epoch, ok := r.src.LatestSettledEpoch(qid)
		if !ok || (st.hasEpoch && epoch <= st.Epoch) {
			continue // no new settled evidence
		}
		scale := uint64(in.Query.Threshold())
		qa, ok := r.src.ObservedAccuracy(qid, epoch, scale)
		if !ok || qa.Partial || qa.Transition {
			continue
		}
		st.hasEpoch, st.Epoch = true, epoch
		st.seq++
		rep.Examined++

		plan, deployed := r.deployed[name]
		if !deployed {
			continue
		}
		st.Width = plan.Width
		st.Target = in.Accuracy.MaxRelErr
		st.Observed = qa.Observed()
		st.InBand = st.Observed <= st.Target
		if st.seq > st.rejectedUntil {
			st.Rejected = 0
		}
		if st.seq <= st.cooldownUntil {
			continue // sketch still refilling after the last resize
		}

		evs, err := r.controlLocked(st, in, qa, scale)
		rep.Events = append(rep.Events, evs...)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// controlLocked applies the hysteresis state machine to one query's
// fresh observation and performs at most one resize.
func (r *Refiner) controlLocked(st *qState, in Intent, qa telemetry.QueryAccuracy, scale uint64) ([]RefineEvent, error) {
	tol := in.Accuracy.MaxRelErr
	w := st.Width

	if !st.InBand {
		st.UnderRuns = 0
		st.OverRuns++
		if st.OverRuns < widenAfter {
			return nil, nil
		}
		// Widen-fast: jump straight to the rung the measured stream
		// needs, never less than one rung up.
		want, err := scheduler.WidthForTarget(tol, qa.StreamTotal, scale)
		if err != nil {
			return nil, err
		}
		if want <= w {
			want = w * 2
		}
		want = scheduler.ClampToLadder(want, in.MinWidth, in.MaxWidth)
		if st.Rejected != 0 && want >= st.Rejected {
			// The planner refused this rung recently; bid just below it
			// until the hold expires.
			want = scheduler.ClampToLadder(st.Rejected/2, in.MinWidth, in.MaxWidth)
		}
		if want <= w {
			st.LastAction = "at-max"
			st.OverRuns = 0 // nowhere to go; stop accumulating
			return nil, nil
		}
		return r.resizeLocked(st, w, want, +1)
	}

	// In band: is the NEXT rung down still comfortably inside tolerance?
	st.OverRuns = 0
	down := scheduler.ClampToLadder(w/2, in.MinWidth, in.MaxWidth)
	if down >= w || qa.PredictedAtWidth(down) > narrowMargin*tol {
		st.UnderRuns = 0
		return nil, nil
	}
	st.UnderRuns++
	if st.UnderRuns < narrowAfter {
		return nil, nil
	}
	// Narrow-slow: one rung at a time.
	return r.resizeLocked(st, w, down, -1)
}

// resizeLocked commits one resize decision through the fleet: pin the
// width cap, converge, and read back what the planner actually granted.
// A grant below the bid is recorded as a rejection (for rejectHold) so
// the refiner stops bidding for capacity the fleet does not have.
func (r *Refiner) resizeLocked(st *qState, from, want uint32, dir int) ([]RefineEvent, error) {
	var evs []RefineEvent
	ev := func(action string, to uint32) {
		evs = append(evs, RefineEvent{
			Query: st.Query, QID: st.QID, Epoch: st.Epoch,
			Action: action, From: from, To: to,
			Observed: st.Observed, Target: st.Target,
		})
	}

	if st.lastDir != 0 && dir != st.lastDir && st.seq-st.lastDirSeq <= flapEpochs {
		// Direction reversal inside the flap window: the hysteresis
		// failed to damp an oscillation. Count it loudly — the
		// convergence gate asserts zero — but still obey the controller.
		st.Flaps++
		ev("flap", want)
	}

	r.fleet.SetWidthCap(st.Query, want)
	if _, _, err := r.fleet.Converge(); err != nil {
		return evs, fmt.Errorf("refiner: converge %s to width %d: %w", st.Query, want, err)
	}
	r.deployed = r.fleet.Deployed()
	granted := want
	if plan, ok := r.deployed[st.Query]; ok {
		granted = plan.Width
	}
	if granted != want {
		// The planner degraded (or refused) the bid: remember the rung
		// so the next pass does not retry it until the hold expires, and
		// pin the cap at what the fleet actually holds.
		st.Rejected = want
		st.rejectedUntil = st.seq + rejectHold
		r.fleet.SetWidthCap(st.Query, granted)
		ev("reject", granted)
	}
	if granted != from {
		st.Resizes++
		if granted > from {
			st.Widens++
			st.LastAction = "widen"
			ev("widen", granted)
		} else {
			st.Narrows++
			st.LastAction = "narrow"
			ev("narrow", granted)
		}
		st.lastDir, st.lastDirSeq = dir, st.seq
		st.cooldownUntil = st.seq + cooldownEpochs
		st.Width = granted
	}
	st.OverRuns, st.UnderRuns = 0, 0
	return evs, nil
}

// States returns every tracked query's control-loop snapshot, sorted by
// query name.
func (r *Refiner) States() []QueryRefineState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryRefineState, 0, len(r.states))
	for _, st := range r.states {
		out = append(out, st.QueryRefineState)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}
