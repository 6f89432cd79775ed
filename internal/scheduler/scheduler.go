// Package scheduler is admission accounting that mirrors the engine's
// allocator: a Tracker charges compiled programs against one device's
// budget (stages, per-bank registers, per-module rule capacity, the
// classifier's predicate population) exactly as modules.Engine.Install
// would, so an admission it accepts always installs. The width ladder
// and its helpers give the accuracy rungs a query may degrade through.
// The one admission walk over them — priority order, ladder, placement,
// the §7 scheduling problem the paper leaves open — is orchestrator.Plan.
package scheduler

import (
	"fmt"
	"math/bits"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// Budget is one device's resource envelope.
type Budget struct {
	// Stages is the module stage count of the pipeline.
	Stages int
	// ArraySize is each state bank's register count.
	ArraySize uint32
	// RulesPerModule is each module's rule capacity, and newton_fin's
	// (one entry per installed program).
	RulesPerModule int
}

// classifierPreds caps the distinct (column, value, mask) predicates the
// newton_init compiled classifier may hold. Per-dimension lookup tables
// grow with distinct predicates, so admitting past this point would push
// the classifier over its compile budget and drop the whole device back
// to linear scans; 4096 stays comfortably below that budget for a
// 6-column table.
const classifierPreds = 4096

// DefaultMinWidth and DefaultMaxWidth are the accuracy ladder's bounds
// when an intent leaves them zero.
const (
	DefaultMinWidth uint32 = 256
	DefaultMaxWidth uint32 = 4096
)

// DefaultBudget mirrors the evaluation's device: 12 stages, 4096
// registers per bank, 256 rules per module.
func DefaultBudget() Budget {
	return Budget{Stages: 12, ArraySize: 4096, RulesPerModule: modules.DefaultRulesPerModule}
}

// bankKey identifies one state bank, tableKey one module.
type bankKey struct{ stage, set int }
type tableKey struct {
	stage, set int
	kind       modules.Kind
}

// moduleOf is the module an op holds a rule in.
func moduleOf(op *modules.Op) tableKey { return tableKey{op.Stage, op.Set & 1, op.Kind} }

// bankOf is the state bank an op allocates registers in, if it does.
func bankOf(op *modules.Op) (bankKey, bool) {
	owns := op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead
	return bankKey{op.Stage, op.Set & 1}, owns
}

// InitCapacity is the newton_init classifier's rule capacity under this
// budget — the same InitCapacityFactor multiple of a module table the
// engine's layout allocates, so the planner cannot drift from the
// allocator it mirrors.
func (b Budget) InitCapacity() int { return b.RulesPerModule * modules.InitCapacityFactor }

// WidthLadder is the accuracy ladder admission walks for one query:
// MaxWidth first, then each power of two strictly between the bounds,
// then a final MinWidth attempt — so MinWidth is always tried even when
// it is not MaxWidth/2^k, and no rung except the caller-chosen bounds is
// a non-power-of-two width. Inverted bounds (MaxWidth < MinWidth) are
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
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			wantRules[moduleOf(op)]++
			if k, ok := bankOf(op); ok {
				wantRegs[k] += op.Width()
			}
		}
	}
	// Banks, then modules, are checked in op order, so the refusal names
	// the same one on every run.
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			if k, ok := bankOf(op); ok && t.regs[k]+wantRegs[k] > t.b.ArraySize {
				return false, fmt.Sprintf("state bank at stage %d set %d needs %d registers, %d free",
					k.stage, k.set, wantRegs[k], t.b.ArraySize-t.regs[k])
			}
		}
	}
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			if k := moduleOf(op); t.rules[k]+wantRules[k] > t.b.RulesPerModule {
				return false, fmt.Sprintf("%v table at stage %d set %d out of rule capacity", k.kind, k.stage, k.set)
			}
		}
	}
	if t.initRules+len(p.Branches) > t.b.InitCapacity() {
		return false, "newton_init out of rule capacity"
	}
	if t.programs >= t.b.RulesPerModule {
		return false, "newton_fin out of rule capacity"
	}
	if fresh := t.newPreds(p); len(t.preds)+len(fresh) > classifierPreds {
		return false, fmt.Sprintf("newton_init classifier out of predicate capacity (%d + %d new > %d)",
			len(t.preds), len(fresh), classifierPreds)
	}
	return true, ""
}

// Commit reserves a program's footprint.
func (t *Tracker) Commit(p *modules.Program) {
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			t.rules[moduleOf(op)]++
			if k, ok := bankOf(op); ok {
				t.regs[k] += op.Width()
			}
		}
	}
	t.initRules += len(p.Branches)
	t.programs++
	for k := range t.newPreds(p) {
		t.preds[k] = struct{}{}
	}
}
