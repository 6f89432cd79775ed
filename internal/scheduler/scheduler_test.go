package scheduler

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

func allRequests(prio func(i int) int) []Request {
	qs := query.All()
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Query: q, Priority: prio(i)}
	}
	return reqs
}

func TestPlanAdmitsEverythingWithAmpleBudget(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 1 }), b)
	for i, d := range ds {
		if !d.Admitted {
			t.Errorf("Q%d rejected under ample budget: %s", i+1, d.Reason)
		}
		if d.Width != 4096 {
			t.Errorf("Q%d degraded to %d despite ample budget", i+1, d.Width)
		}
	}
}

func TestPlanDegradesWidthUnderRegisterPressure(t *testing.T) {
	// Banks too small for everyone at 4096: at least one lower-priority
	// query survives by taking a narrower sketch instead of rejection.
	b := Budget{Stages: 16, ArraySize: 10240, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 9 - i }), b)
	admitted, degraded := 0, 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
			if d.Width < 4096 {
				degraded++
			}
		}
	}
	if admitted < 3 {
		t.Errorf("only %d admitted under register pressure", admitted)
	}
	if degraded == 0 {
		t.Error("nothing degraded despite register pressure")
	}
	// More registers admit more queries (monotone in budget).
	ds2 := Plan(allRequests(func(i int) int { return 9 - i }), Budget{Stages: 16, ArraySize: 1 << 16, RulesPerModule: 1024})
	admitted2 := 0
	for _, d := range ds2 {
		if d.Admitted {
			admitted2++
		}
	}
	if admitted2 <= admitted {
		t.Errorf("bigger banks admitted %d <= %d", admitted2, admitted)
	}
	// The highest-priority query keeps the full width.
	if !ds[0].Admitted || ds[0].Width != 4096 {
		t.Errorf("top-priority query got %+v", ds[0])
	}
}

func TestPlanRespectsPriorityOrder(t *testing.T) {
	// Give Q6 (the largest) top priority under a tight budget: it must
	// be considered first and admitted.
	b := Budget{Stages: 16, ArraySize: 8192, RulesPerModule: 1024}
	prio := func(i int) int {
		if i == 5 {
			return 100
		}
		return 1
	}
	ds := Plan(allRequests(prio), b)
	if !ds[5].Admitted {
		t.Fatalf("top-priority Q6 rejected: %s", ds[5].Reason)
	}
}

func TestPlanRejectsOnStages(t *testing.T) {
	b := Budget{Stages: 6, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan(allRequests(func(i int) int { return 1 }), b)
	if !ds[0].Admitted { // Q1 fits 6 stages
		t.Errorf("Q1 rejected: %s", ds[0].Reason)
	}
	if ds[5].Admitted { // Q6 needs ~10 stages
		t.Error("Q6 admitted into a 6-stage device")
	}
	if !strings.Contains(ds[5].Reason, "stages") {
		t.Errorf("rejection reason unhelpful: %q", ds[5].Reason)
	}
}

func TestPlanIsSound(t *testing.T) {
	// Whatever the plan admits must actually install into a real engine
	// with exactly the planned budget.
	b := Budget{Stages: 16, ArraySize: 16384, RulesPerModule: 256}
	ds := Plan(allRequests(func(i int) int { return 9 - i }), b)
	layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(ds, modules.NewEngine(layout)); err != nil {
		t.Fatalf("plan unsound: %v", err)
	}
	admitted := 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted — soundness vacuous")
	}
}

func TestPlanDefaultsAndSummary(t *testing.T) {
	ds := Plan(allRequests(func(i int) int { return 1 }), Budget{})
	s := Summary(ds)
	if !strings.Contains(s, "q1_new_tcp_connections") {
		t.Error("summary missing rows")
	}
	anyAdmitted := false
	for _, d := range ds {
		if d.Admitted {
			anyAdmitted = true
		}
	}
	if !anyAdmitted {
		t.Error("default budget admits nothing")
	}
}

// TestPartialBudgetKeepsItsFields: a budget that leaves one field zero
// takes only that field from the default. Replacing the whole budget
// planned `newton-ctl plan -stages 8 -rules 0` against 12 stages and
// 4096 registers on switches built with 8.
func TestPartialBudgetKeepsItsFields(t *testing.T) {
	got := NewTracker(Budget{Stages: 8, ArraySize: 1 << 14}).Budget()
	want := Budget{Stages: 8, ArraySize: 1 << 14, RulesPerModule: DefaultBudget().RulesPerModule}
	if got != want {
		t.Fatalf("NewTracker(Budget{Stages: 8, ArraySize: 1<<14}).Budget() = %+v, want %+v", got, want)
	}
}

func TestPlanWidthLadderBounds(t *testing.T) {
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 2048, MaxWidth: 2048}}
	// Bank smaller than the only acceptable width: reject, don't degrade
	// below MinWidth.
	b := Budget{Stages: 16, ArraySize: 2047, RulesPerModule: 256}
	ds := Plan(reqs, b)
	if ds[0].Admitted {
		t.Error("admitted below the request's minimum width")
	}
	if ds[0].Reason == "" {
		t.Error("missing rejection reason")
	}
}

func TestPlanRejectsOnRuleCapacity(t *testing.T) {
	// The same query over and over stacks rules into the same module
	// tables; a tiny per-table capacity must eventually reject, and the
	// reason must say so (width degradation cannot fix rule pressure).
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{Query: query.Q1(40), Priority: 1})
	}
	b := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 8}
	ds := Plan(reqs, b)
	admitted, rejected := 0, 0
	for _, d := range ds {
		if d.Admitted {
			admitted++
			continue
		}
		rejected++
		if !strings.Contains(d.Reason, "rule capacity") {
			t.Fatalf("rejection reason %q, want rule-capacity mention", d.Reason)
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted — capacity test vacuous")
	}
	if rejected == 0 {
		t.Fatal("40 copies all fit into 8 rules per table — no rejection exercised")
	}
}

func TestApplyUnsoundPlan(t *testing.T) {
	// A plan made for a big device must fail loudly when applied to a
	// smaller one, rather than half-installing.
	b := Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024}
	ds := Plan([]Request{{Query: query.Q1(40), Priority: 1}}, b)
	if !ds[0].Admitted {
		t.Fatalf("Q1 rejected under ample budget: %s", ds[0].Reason)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	err = Apply(ds, modules.NewEngine(layout))
	if err == nil {
		t.Fatal("Apply succeeded on a device 1/2048th the planned size")
	}
	if !strings.Contains(err.Error(), "plan unsound") {
		t.Fatalf("Apply error %q, want 'plan unsound'", err)
	}
}

func TestWidthLadderRungs(t *testing.T) {
	// The pre-fix ladder halved from MaxWidth and stopped above MinWidth,
	// so MinWidth was only ever tried when it was exactly MaxWidth/2^k —
	// Min=300/Max=400 tried only 400 — and non-power-of-two MaxWidths
	// cascaded into non-power-of-two intermediate rungs.
	cases := []struct {
		name       string
		min, max   uint32
		want       []uint32
		wantErrSub string
	}{
		{name: "skipped rung: min not on the halving chain", min: 300, max: 400, want: []uint32{400, 300}},
		{name: "pow2 bounds walk the full chain", min: 256, max: 4096, want: []uint32{4096, 2048, 1024, 512, 256}},
		{name: "non-pow2 min gets a final attempt", min: 300, max: 2048, want: []uint32{2048, 1024, 512, 300}},
		{name: "non-pow2 max steps down to powers of two", min: 256, max: 1000, want: []uint32{1000, 512, 256}},
		{name: "equal bounds: single rung", min: 2048, max: 2048, want: []uint32{2048}},
		{name: "adjacent: max then min", min: 512, max: 1024, want: []uint32{1024, 512}},
		{name: "defaults applied", min: 0, max: 0, want: []uint32{4096, 2048, 1024, 512, 256}},
		{name: "inverted bounds rejected", min: 1024, max: 512, wantErrSub: "inverted width bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := WidthLadder(tc.min, tc.max)
			if tc.wantErrSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErrSub) {
					t.Fatalf("err = %v, want %q", err, tc.wantErrSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ladder = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ladder = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestPlanTriesMinWidthOffTheHalvingChain(t *testing.T) {
	// Min=300/Max=400 with banks that fit 300 but not 400: the pre-fix
	// ladder never tried 300 and rejected outright.
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 300, MaxWidth: 400}}
	b := Budget{Stages: 16, ArraySize: 350, RulesPerModule: 256}
	ds := Plan(reqs, b)
	if !ds[0].Admitted {
		t.Fatalf("rejected despite MinWidth fitting: %s", ds[0].Reason)
	}
	if ds[0].Width != 300 {
		t.Fatalf("width = %d, want the MinWidth rung 300", ds[0].Width)
	}
	if !strings.Contains(ds[0].Reason, "degraded") {
		t.Errorf("degradation not surfaced: %q", ds[0].Reason)
	}
}

func TestPlanRejectsInvertedBoundsWithReason(t *testing.T) {
	reqs := []Request{{Query: query.Q1(40), Priority: 1, MinWidth: 1024, MaxWidth: 300}}
	ds := Plan(reqs, Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024})
	if ds[0].Admitted {
		t.Fatal("admitted with MaxWidth < MinWidth")
	}
	if !strings.Contains(ds[0].Reason, "inverted width bounds") {
		t.Fatalf("reason = %q, want an explicit inverted-bounds rejection", ds[0].Reason)
	}
}

func TestInitCapacityMatchesEngineTable(t *testing.T) {
	// The planner's newton_init accounting must mirror the allocator it
	// models: the engine's actual classifier capacity, not a drifting
	// hardcoded multiple.
	layout, err := modules.NewLayout(modules.LayoutCompact, 12, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DefaultBudget().InitCapacity(), layout.Init.MaxEntries; got != want {
		t.Fatalf("scheduler init capacity %d != engine newton_init capacity %d", got, want)
	}
	b := Budget{Stages: 12, ArraySize: 4096, RulesPerModule: modules.DefaultRulesPerModule * 2}
	if got, want := b.InitCapacity(), b.RulesPerModule*modules.InitCapacityFactor; got != want {
		t.Fatalf("InitCapacity %d does not scale with the budget's rule capacity (want %d)", got, want)
	}
}

func TestPlanClassifierPredCapacity(t *testing.T) {
	// Measure one query's distinct predicate population from an ample
	// plan, then re-plan against exactly that cap: two identical queries
	// share every predicate, so both must fit — the tracker charges
	// distinct predicates, not entries.
	ample := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024}
	ds := Plan([]Request{{Query: query.Q1(40), Priority: 1}}, ample)
	if !ds[0].Admitted {
		t.Fatalf("Q1 rejected under ample budget: %s", ds[0].Reason)
	}
	nPreds := ds[0].Program.Footprint().ClassifierPreds
	if nPreds == 0 {
		t.Fatal("Q1 contributes no classifier predicates — capacity test vacuous")
	}

	exact := ample
	exact.ClassifierPreds = nPreds
	ds = Plan([]Request{
		{Query: query.Q1(40), Priority: 2},
		{Query: query.Q1(40), Priority: 1},
	}, exact)
	for i, d := range ds {
		if !d.Admitted {
			t.Fatalf("copy %d rejected at exact predicate cap (%s) — dedupe broken", i, d.Reason)
		}
	}

	tight := ample
	tight.ClassifierPreds = nPreds - 1
	ds = Plan([]Request{{Query: query.Q1(40), Priority: 1}}, tight)
	if ds[0].Admitted {
		t.Fatal("Q1 admitted past the predicate cap")
	}
	if !strings.Contains(ds[0].Reason, "predicate capacity") {
		t.Fatalf("rejection reason %q, want predicate-capacity mention", ds[0].Reason)
	}
}

func TestTrackerClonePreds(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024, ClassifierPreds: 64}
	ds := Plan([]Request{{Query: query.Q1(40), Priority: 1}}, b)
	tr := NewTracker(b)
	tr.Commit(ds[0].Program)
	clone := tr.Clone()
	if len(clone.preds) != len(tr.preds) {
		t.Fatalf("clone carries %d preds, tracker %d", len(clone.preds), len(tr.preds))
	}
	// Mutating the clone must not leak back.
	clone.preds[modules.InitPredKey{Col: 5, Val: 1, Mask: 1}] = struct{}{}
	if len(clone.preds) == len(tr.preds) {
		t.Fatal("clone shares the predicate set with its parent")
	}
}

// TestFitsMatchesEngineInstall holds the tracker to its claim that
// register accounting mirrors the engine: over seeded random sequences
// of installs, removals and resizes (remove, then install at another
// rung of the width ladder — what the refiner does over time) on a
// device with tight banks, Fits over the installed set says yes exactly
// when Engine.Install finds the registers. The engine's banks being
// sums is what makes this hold on a fragmented bank.
func TestFitsMatchesEngineInstall(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 8192, RulesPerModule: 256}
	widths := []uint32{256, 512, 1024, 2048, 4096}
	catalog := query.All()
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 16))
		layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
		if err != nil {
			t.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		type live struct {
			qid int
			q   *query.Query
		}
		var installed []live
		nextQID, fullBanks := 1, 0

		// install offers one program to both sides and compares verdicts.
		install := func(step int, qid int, q *query.Query, width uint32) {
			o := compiler.AllOpts()
			o.QID, o.Width = qid, width
			p, err := compiler.Compile(q, o)
			if err != nil {
				t.Fatalf("Compile %s: %v", q.Name, err)
			}
			tr := NewTracker(b)
			for _, have := range eng.Programs() {
				tr.Commit(have)
			}
			fits, why := tr.Fits(p)
			if !fits && !strings.Contains(why, "state bank") {
				return // rejected on rules or predicates: not this test's subject
			}
			ierr := eng.Install(p)
			where := fmt.Sprintf("seed %d step %d: %s qid %d width %d over %d installed", seed, step, q.Name, qid, width, len(installed))
			switch {
			case fits && ierr != nil:
				t.Fatalf("%s: admitted, but the engine refused: %v", where, ierr)
			case !fits && ierr == nil:
				t.Fatalf("%s: rejected (%s), but the engine installed it", where, why)
			case !fits && !strings.Contains(ierr.Error(), "exhausted"):
				t.Fatalf("%s: rejected on registers, engine failed on something else: %v", where, ierr)
			}
			if ierr == nil {
				installed = append(installed, live{qid, q})
			} else {
				fullBanks++
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(4); {
			case op <= 1 || len(installed) == 0:
				install(step, nextQID, catalog[rng.IntN(len(catalog))], widths[rng.IntN(len(widths))])
				nextQID++
			default:
				i := rng.IntN(len(installed))
				v := installed[i]
				installed = append(installed[:i], installed[i+1:]...)
				if err := eng.Remove(v.qid); err != nil {
					t.Fatalf("seed %d step %d: Remove %d: %v", seed, step, v.qid, err)
				}
				if op == 3 { // resize: back in at another width, same qid
					install(step, v.qid, v.q, widths[rng.IntN(len(widths))])
				}
			}
		}
		if fullBanks == 0 {
			t.Fatalf("seed %d never filled a bank — the equivalence is vacuous", seed)
		}
	}
}

// TestFitsChargesNewtonFin: every installed program holds one newton_fin
// entry, and the engine holds RulesPerModule of them. Programs of one K
// op each, spread so that no module fills, run newton_fin out first; the
// tracker must refuse the program the engine refuses, and say why.
func TestFitsChargesNewtonFin(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 4096, RulesPerModule: modules.DefaultRulesPerModule}
	layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
	if err != nil {
		t.Fatal(err)
	}
	eng, tr := modules.NewEngine(layout), NewTracker(b)
	for i := 0; i <= b.RulesPerModule; i++ {
		p := &modules.Program{QID: i + 1, Branches: []*modules.BranchProgram{{Ops: []*modules.Op{{
			Kind: modules.ModK, Set: i / b.Stages % 2, Stage: 1 + i%b.Stages,
			K: &modules.KConfig{Mask: fields.Keep(fields.DstIP)},
		}}}}}
		fits, why := tr.Fits(p)
		ierr := eng.Install(p)
		if fits != (ierr == nil) {
			t.Fatalf("program %d: Fits = %v (%s), but Install = %v", i+1, fits, why, ierr)
		}
		if fits {
			tr.Commit(p)
		} else if i < b.RulesPerModule || !strings.Contains(why, "newton_fin") {
			t.Fatalf("program %d refused (%s): want only program %d refused, on newton_fin", i+1, why, b.RulesPerModule+1)
		}
	}
	if eng.InstalledCount() != b.RulesPerModule {
		t.Fatalf("%d programs installed, want %d", eng.InstalledCount(), b.RulesPerModule)
	}
}
