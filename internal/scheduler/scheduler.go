// Package scheduler is admission accounting: a Tracker charges compiled
// programs against one device's budget on the ledger modules.Engine.Install
// charges (stages, per-bank registers, per-module rules, newton_init and
// newton_fin entries), plus the classifier's predicate population, so an
// admission it accepts installs by construction. The width ladder
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
// grow with distinct predicates, and the device refuses a rule set that
// does not compile (classify.ErrBudget, ErrMaskShape): the install fails
// and the table keeps its rules. The cap is a proxy for that compile,
// not the compile itself, so admission can still accept a set the
// device refuses.
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
// orchestrator keeps one of per switch: the engine's ledger over the
// budget, and the classifier predicates the ledger does not count. The
// zero value is unusable; call NewTracker.
type Tracker struct {
	b   Budget
	led modules.Ledger
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
	return &Tracker{b: b, led: modules.NewLedger(modules.LayoutCompact, b.Stages, b.ArraySize, b.RulesPerModule),
		preds: map[modules.InitPredKey]int{}}
}

// Budget returns the tracker's device envelope.
func (t *Tracker) Budget() Budget { return t.b }

// Reset empties the tracker in place, as NewTracker would leave it: the
// counts are cleared and their storage kept, so a plan that starts over
// on the same trackers allocates nothing for them.
func (t *Tracker) Reset() {
	t.led.Reset()
	clear(t.preds)
}

// Clone copies the tracker so an admission can be checked tentatively
// and discarded.
func (t *Tracker) Clone() *Tracker {
	return &Tracker{b: t.b, led: t.led.Clone(), preds: maps.Clone(t.preds)}
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

// Fits checks a compiled program against the remaining budget: the
// ledger's refusal, or the classifier's predicate capacity.
func (t *Tracker) Fits(p *modules.Program) (bool, string) {
	if err := t.led.Fits(p); err != nil {
		return false, err.Error()
	}
	if fresh := t.newPreds(p); len(t.preds)+len(fresh) > classifierPreds {
		return false, fmt.Sprintf("newton_init classifier out of predicate capacity (%d + %d new > %d)",
			len(t.preds), len(fresh), classifierPreds)
	}
	return true, ""
}

// Commit reserves the footprint of a program Fits accepted. Committing
// one the ledger refuses panics: the tracker would then hold more than
// the device has.
func (t *Tracker) Commit(p *modules.Program) {
	if err := t.led.Charge(p); err != nil {
		panic("scheduler: Commit of a program Fits refuses: " + err.Error())
	}
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
	t.led.Refund(p)
	var buf [8]modules.InitPredKey
	for _, br := range p.Branches {
		for _, k := range br.InitPreds(buf[:0]) {
			if t.preds[k]--; t.preds[k] == 0 {
				delete(t.preds, k)
			}
		}
	}
}
