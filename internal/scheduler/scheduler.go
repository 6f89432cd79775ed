// Package scheduler plans concurrent query admission — the open problem
// §7 of the paper leaves as future work ("this paper does not design the
// solution for scheduling concurrent queries to optimally utilize data
// plane resources").
//
// Given a set of prioritized monitoring intents and one device's budget
// (stages, per-bank registers, per-module rule capacity), the scheduler
// compiles each query, then admits queries in priority order at the
// widest sketch geometry that still fits — degrading a query's register
// width (its accuracy) before rejecting it outright. The produced plan
// is sound by construction: Apply installs it into a real module engine
// and every admission succeeds.
package scheduler

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
)

// Request is one query the operator wants deployed.
type Request struct {
	Query    *query.Query
	Priority int // higher admits first

	// MinWidth and MaxWidth bound the acceptable register width per
	// sketch row (accuracy ladder). Zero values default to 256 and 4096.
	MinWidth, MaxWidth uint32
}

// Budget is one device's resource envelope.
type Budget struct {
	// Stages is the module stage count of the pipeline.
	Stages int
	// ArraySize is each state bank's register count.
	ArraySize uint32
	// RulesPerModule is each module's rule capacity, and newton_fin's
	// (one entry per installed program).
	RulesPerModule int
	// ClassifierPreds caps the distinct (column, value, mask) predicates
	// the newton_init compiled classifier may hold. Per-dimension lookup
	// tables grow with distinct predicates, so admitting past this point
	// would push the classifier over its compile budget and drop the
	// whole device back to linear scans. Zero defaults to
	// DefaultClassifierPreds.
	ClassifierPreds int
}

// DefaultClassifierPreds bounds the classifier's predicate population
// comfortably below the compile budget for a 6-column table.
const DefaultClassifierPreds = 4096

// DefaultMinWidth and DefaultMaxWidth are the accuracy ladder's bounds
// when a request leaves them zero.
const (
	DefaultMinWidth uint32 = 256
	DefaultMaxWidth uint32 = 4096
)

// DefaultBudget mirrors the evaluation's device: 12 stages, 4096
// registers per bank, 256 rules per module.
func DefaultBudget() Budget {
	return Budget{Stages: 12, ArraySize: 4096, RulesPerModule: modules.DefaultRulesPerModule}
}

// Decision is the scheduler's verdict for one request.
type Decision struct {
	Request  Request
	Admitted bool
	Width    uint32 // granted register width (0 if rejected)
	Reason   string // why rejected or degraded
	Program  *modules.Program
	Stats    compiler.Stats
}

// bankKey identifies one state bank, tableKey one module.
type bankKey struct{ stage, set int }
type tableKey struct {
	stage, set int
	kind       modules.Kind
}

// InitCapacity is the newton_init classifier's rule capacity under this
// budget — the same InitCapacityFactor multiple of a module table the
// engine's layout allocates, so the planner cannot drift from the
// allocator it mirrors.
func (b Budget) InitCapacity() int { return b.RulesPerModule * modules.InitCapacityFactor }

// ClassifierPredCap is the effective classifier predicate budget.
func (b Budget) ClassifierPredCap() int {
	if b.ClassifierPreds > 0 {
		return b.ClassifierPreds
	}
	return DefaultClassifierPreds
}

// WidthLadder is the accuracy ladder Plan walks for one request: MaxWidth
// first, then each power of two strictly between the bounds, then a
// final MinWidth attempt — so MinWidth is always tried even when it is
// not MaxWidth/2^k, and no rung except the caller-chosen bounds is a
// non-power-of-two width. Inverted bounds (MaxWidth < MinWidth) are
// rejected rather than silently producing an empty ladder.
func WidthLadder(minW, maxW uint32) ([]uint32, error) {
	if minW == 0 {
		minW = DefaultMinWidth
	}
	if maxW == 0 {
		maxW = DefaultMaxWidth
	}
	if maxW < minW {
		return nil, fmt.Errorf("scheduler: inverted width bounds (min %d > max %d)", minW, maxW)
	}
	ladder := []uint32{maxW}
	if maxW > 1 {
		// Largest power of two strictly below maxW.
		for w := uint32(1) << (bits.Len32(maxW-1) - 1); w > minW; w >>= 1 {
			ladder = append(ladder, w)
		}
	}
	if minW != maxW {
		ladder = append(ladder, minW)
	}
	return ladder, nil
}

// WidthForTarget walks the ladder in reverse: the narrowest row width
// whose Count-Min bound ε·N = (e/width)·N stays within maxRelErr·scale
// for the observed stream total. Scale is the query's decision scale —
// its report threshold when it has one, otherwise the stream total
// itself (zero scale defaults to streamTotal). This is how the refiner
// turns an intent-declared accuracy plus a measured N into a rung
// request, instead of always bidding for capacity.
func WidthForTarget(maxRelErr float64, streamTotal, scale uint64) (uint32, error) {
	if maxRelErr <= 0 || maxRelErr >= 1 {
		return 0, fmt.Errorf("scheduler: target relative error %g outside (0, 1)", maxRelErr)
	}
	if scale == 0 {
		scale = streamTotal
	}
	if streamTotal == 0 {
		return 1, nil // empty stream: any width meets any target
	}
	return sketch.CMSWidthFor(streamTotal, maxRelErr*float64(scale)), nil
}

// ClampToLadder snaps a requested width into [minW, maxW] (zero bounds
// defaulting like WidthLadder), preserving the request when it already
// lies inside.
func ClampToLadder(w, minW, maxW uint32) uint32 {
	if minW == 0 {
		minW = DefaultMinWidth
	}
	if maxW == 0 {
		maxW = DefaultMaxWidth
	}
	if w < minW {
		return minW
	}
	if w > maxW {
		return maxW
	}
	return w
}

// Tracker accumulates admitted programs' footprints against one
// device's budget — the per-switch admission state the network-wide
// orchestrator keeps one of per switch. The zero value is unusable;
// call NewTracker.
type Tracker struct {
	b         Budget
	regs      map[bankKey]uint32
	rules     map[tableKey]int
	initRules int
	programs  int // newton_fin entries: one per program
	preds     map[modules.InitPredKey]struct{}
}

// NewTracker starts empty accounting against b. Each zero field takes
// DefaultBudget's value on its own: a partly filled budget stays the
// device it describes.
func NewTracker(b Budget) *Tracker {
	def := DefaultBudget()
	if b.Stages <= 0 {
		b.Stages = def.Stages
	}
	if b.ArraySize == 0 {
		b.ArraySize = def.ArraySize
	}
	if b.RulesPerModule <= 0 {
		b.RulesPerModule = def.RulesPerModule
	}
	return &Tracker{b: b, regs: map[bankKey]uint32{}, rules: map[tableKey]int{},
		preds: map[modules.InitPredKey]struct{}{}}
}

// Budget returns the tracker's device envelope.
func (t *Tracker) Budget() Budget { return t.b }

// Clone copies the tracker so a multi-switch admission can be checked
// tentatively and discarded on any switch's rejection.
func (t *Tracker) Clone() *Tracker {
	c := &Tracker{b: t.b, regs: make(map[bankKey]uint32, len(t.regs)),
		rules: make(map[tableKey]int, len(t.rules)), initRules: t.initRules, programs: t.programs,
		preds: make(map[modules.InitPredKey]struct{}, len(t.preds))}
	for k, v := range t.regs {
		c.regs[k] = v
	}
	for k, v := range t.rules {
		c.rules[k] = v
	}
	for k := range t.preds {
		c.preds[k] = struct{}{}
	}
	return c
}

// newPreds collects the program's classifier predicates the tracker has
// not yet accounted for.
func (t *Tracker) newPreds(p *modules.Program) map[modules.InitPredKey]struct{} {
	fresh := map[modules.InitPredKey]struct{}{}
	var buf []modules.InitPredKey
	for _, br := range p.Branches {
		buf = br.InitPreds(buf[:0])
		for _, k := range buf {
			if _, seen := t.preds[k]; !seen {
				fresh[k] = struct{}{}
			}
		}
	}
	return fresh
}

// Fits checks a compiled program against the remaining budget.
func (t *Tracker) Fits(p *modules.Program) (bool, string) {
	if s := p.NumStages(); s > t.b.Stages {
		return false, fmt.Sprintf("needs %d stages, device has %d", s, t.b.Stages)
	}
	wantRegs := map[bankKey]uint32{}
	wantRules := map[tableKey]int{}
	branches := 0
	for _, br := range p.Branches {
		branches++
		for _, op := range br.Ops {
			tk := tableKey{op.Stage, op.Set & 1, op.Kind}
			wantRules[tk]++
			if op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead {
				wantRegs[bankKey{op.Stage, op.Set & 1}] += op.Width()
			}
		}
	}
	for k, w := range wantRegs {
		if t.regs[k]+w > t.b.ArraySize {
			return false, fmt.Sprintf("state bank at stage %d set %d needs %d registers, %d free",
				k.stage, k.set, w, t.b.ArraySize-t.regs[k])
		}
	}
	for k, n := range wantRules {
		if t.rules[k]+n > t.b.RulesPerModule {
			return false, fmt.Sprintf("%v table at stage %d set %d out of rule capacity", k.kind, k.stage, k.set)
		}
	}
	if t.initRules+branches > t.b.InitCapacity() {
		return false, "newton_init out of rule capacity"
	}
	if t.programs >= t.b.RulesPerModule {
		return false, "newton_fin out of rule capacity"
	}
	if fresh := t.newPreds(p); len(t.preds)+len(fresh) > t.b.ClassifierPredCap() {
		return false, fmt.Sprintf("newton_init classifier out of predicate capacity (%d + %d new > %d)",
			len(t.preds), len(fresh), t.b.ClassifierPredCap())
	}
	return true, ""
}

// Commit reserves a program's footprint.
func (t *Tracker) Commit(p *modules.Program) {
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			t.rules[tableKey{op.Stage, op.Set & 1, op.Kind}]++
			if op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead {
				t.regs[bankKey{op.Stage, op.Set & 1}] += op.Width()
			}
		}
	}
	t.initRules += len(p.Branches)
	t.programs++
	for k := range t.newPreds(p) {
		t.preds[k] = struct{}{}
	}
}

// Plan admits requests in priority order (ties broken by arrival order),
// degrading widths down the ladder before rejecting. The plan never
// overcommits: register and rule accounting mirrors the engine's
// allocator exactly.
func Plan(reqs []Request, b Budget) []Decision {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return reqs[order[a]].Priority > reqs[order[c]].Priority
	})

	tracker := NewTracker(b)

	decisions := make([]Decision, len(reqs))
	qid := 1
	for _, idx := range order {
		req := reqs[idx]
		d := Decision{Request: req}
		ladder, lerr := WidthLadder(req.MinWidth, req.MaxWidth)
		if lerr != nil {
			d.Reason = lerr.Error()
			decisions[idx] = d
			continue
		}
		maxW := ladder[0]

		var lastErr string
		for _, w := range ladder {
			o := compiler.AllOpts()
			o.QID = qid
			o.Width = w
			p, err := compiler.Compile(req.Query, o)
			if err != nil {
				lastErr = err.Error()
				break // compilation failure does not improve with width
			}
			if fits, why := tracker.Fits(p); !fits {
				lastErr = why
				continue
			}
			tracker.Commit(p)
			d.Admitted = true
			d.Width = w
			d.Program = p
			d.Stats = compiler.Measure(req.Query, p)
			if w != maxW {
				d.Reason = fmt.Sprintf("degraded from %d to %d registers per row", maxW, w)
			}
			qid++
			break
		}
		if !d.Admitted {
			d.Reason = lastErr
			if d.Reason == "" {
				d.Reason = "does not fit at any acceptable width"
			}
		}
		decisions[idx] = d
	}
	return decisions
}

// Apply installs every admitted decision into an engine. The plan's
// accounting matches the engine's allocator, so Apply only fails if the
// engine diverges from the budget it was planned for.
func Apply(decisions []Decision, eng *modules.Engine) error {
	for i := range decisions {
		d := &decisions[i]
		if !d.Admitted {
			continue
		}
		if err := eng.Install(d.Program); err != nil {
			return fmt.Errorf("scheduler: plan unsound at %s: %w", d.Request.Query.Name, err)
		}
	}
	return nil
}

// Summary renders the plan for operators.
func Summary(decisions []Decision) string {
	s := ""
	for _, d := range decisions {
		status := "REJECTED"
		detail := d.Reason
		if d.Admitted {
			status = "admitted"
			detail = fmt.Sprintf("width=%d stages=%d rules=%d", d.Width, d.Stats.Stages, d.Stats.Rules)
			if d.Reason != "" {
				detail += " (" + d.Reason + ")"
			}
		}
		s += fmt.Sprintf("%-26s prio=%-3d %s  %s\n", d.Request.Query.Name, d.Request.Priority, status, detail)
	}
	return s
}
