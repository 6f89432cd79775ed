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
	"maps"
	"math/bits"
	"slices"

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

// bank is the index of an op's state bank in Tracker.regs, module the
// index of its module in Tracker.rules.
func bank(op *modules.Op) int   { return op.Stage*2 + op.Set&1 }
func module(op *modules.Op) int { return bank(op)*int(modules.NumKinds) + int(op.Kind) }

// ownsBank reports whether an op allocates registers in its bank.
func ownsBank(op *modules.Op) bool {
	return op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead
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
	b Budget
	// regs holds each bank's allocated registers and rules each module's
	// entries, indexed by bank and module over the budget's stages.
	regs      []uint32
	rules     []int
	initRules int
	programs  int // newton_fin entries: one per program
	// preds counts, per classifier predicate, the committed branches
	// that use it: the classifier holds len(preds) distinct predicates.
	preds map[modules.InitPredKey]int
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
	banks := (b.Stages + 1) * 2
	return &Tracker{b: b, regs: make([]uint32, banks), rules: make([]int, banks*int(modules.NumKinds)),
		preds: map[modules.InitPredKey]int{}}
}

// Budget returns the tracker's device envelope.
func (t *Tracker) Budget() Budget { return t.b }

// Clone copies the tracker so an admission can be checked tentatively
// and discarded.
func (t *Tracker) Clone() *Tracker {
	c := *t
	c.regs, c.rules, c.preds = slices.Clone(t.regs), slices.Clone(t.rules), maps.Clone(t.preds)
	return &c
}

// newPreds lists the program's classifier predicates the tracker does
// not hold, each once. It inlines, so Fits counts them in a buffer on
// its own stack.
func (t *Tracker) newPreds(p *modules.Program) []modules.InitPredKey {
	var buf [32]modules.InitPredKey
	return t.appendNewPreds(buf[:0], p)
}

func (t *Tracker) appendNewPreds(dst []modules.InitPredKey, p *modules.Program) []modules.InitPredKey {
	for _, br := range p.Branches {
		n := len(dst)
		dst = br.InitPreds(dst)
		fresh := dst[:n]
		for _, k := range dst[n:] {
			if _, held := t.preds[k]; !held && !slices.Contains(fresh, k) {
				fresh = append(fresh, k)
			}
		}
		dst = fresh
	}
	return dst
}

// Fits checks a compiled program against the remaining budget. It adds
// the program's registers and rules in place, checks them and takes them
// back out.
func (t *Tracker) Fits(p *modules.Program) (bool, string) {
	if s := p.NumStages(); s > t.b.Stages {
		return false, fmt.Sprintf("needs %d stages, device has %d", s, t.b.Stages)
	}
	t.add(p, 1)
	why := t.over(p)
	t.add(p, -1)
	if why == "" {
		if fresh := t.newPreds(p); len(t.preds)+len(fresh) > classifierPreds {
			why = fmt.Sprintf("newton_init classifier out of predicate capacity (%d + %d new > %d)",
				len(t.preds), len(fresh), classifierPreds)
		}
	}
	return why == "", why
}

// over names what a program added by add overflows, or returns "".
// Banks, then modules, are checked in op order, so the refusal names the
// same one on every run.
func (t *Tracker) over(p *modules.Program) string {
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			if k := bank(op); ownsBank(op) && t.regs[k] > t.b.ArraySize {
				need := demand(p, k)
				return fmt.Sprintf("state bank at stage %d set %d needs %d registers, %d free",
					op.Stage, op.Set&1, need, t.b.ArraySize-(t.regs[k]-need))
			}
		}
	}
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			if t.rules[module(op)] > t.b.RulesPerModule {
				return fmt.Sprintf("%v table at stage %d set %d out of rule capacity", op.Kind, op.Stage, op.Set&1)
			}
		}
	}
	if t.initRules > t.b.InitCapacity() {
		return "newton_init out of rule capacity"
	}
	if t.programs > t.b.RulesPerModule {
		return "newton_fin out of rule capacity"
	}
	return ""
}

// demand is the registers a program allocates in bank k.
func demand(p *modules.Program, k int) uint32 {
	var n uint32
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			if bank(op) == k && ownsBank(op) {
				n += op.Width()
			}
		}
	}
	return n
}

// add charges (n = 1) or refunds (n = -1) a program's registers, module
// rules, newton_init entries and newton_fin entry.
func (t *Tracker) add(p *modules.Program, n int) {
	for _, br := range p.Branches {
		for _, op := range br.Ops {
			t.rules[module(op)] += n
			if ownsBank(op) {
				t.regs[bank(op)] += uint32(n) * op.Width() // n = -1 wraps to a subtraction
			}
		}
	}
	t.initRules += n * len(p.Branches)
	t.programs += n
}

// Commit reserves the footprint of a program Fits accepted.
func (t *Tracker) Commit(p *modules.Program) {
	t.add(p, 1)
	var buf [8]modules.InitPredKey
	for _, br := range p.Branches {
		for _, k := range br.InitPreds(buf[:0]) {
			t.preds[k]++
		}
	}
}

// Release returns a committed program's footprint: the exact inverse of
// Commit, as Engine.Remove is of Engine.Install. A predicate another
// committed program uses stays held.
func (t *Tracker) Release(p *modules.Program) {
	t.add(p, -1)
	var buf [8]modules.InitPredKey
	for _, br := range p.Branches {
		for _, k := range br.InitPreds(buf[:0]) {
			if t.preds[k]--; t.preds[k] == 0 {
				delete(t.preds, k)
			}
		}
	}
}
