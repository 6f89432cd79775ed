package scheduler

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// compileAt compiles q with every optimization at the given row width.
func compileAt(t *testing.T, q *query.Query, width uint32) *modules.Program {
	t.Helper()
	o := compiler.AllOpts()
	o.QID, o.Width = 1, width
	p, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatalf("Compile %s: %v", q.Name, err)
	}
	return p
}

// TestFitsRefusesOnStages: a program longer than the device is refused,
// and the reason names the stages.
func TestFitsRefusesOnStages(t *testing.T) {
	tr := NewTracker(Budget{Stages: 6, ArraySize: 1 << 20, RulesPerModule: 1024})
	if ok, why := tr.Fits(compileAt(t, query.Q6(40), 4096)); ok || !strings.Contains(why, "stages") {
		t.Fatalf("Q6 on a 6-stage device: Fits = %v (%q), want refused on stages", ok, why)
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

// TestInitCapacityMatchesEngineTable: the tracker refuses the
// newton_init entry the engine's table has no room for, in the engine's
// words. Programs of 64 match-all branches and no ops fill newton_init
// (4 × 256 entries) with the sixteenth; the seventeenth is refused on
// both sides.
func TestInitCapacityMatchesEngineTable(t *testing.T) {
	b := DefaultBudget()
	layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
	if err != nil {
		t.Fatal(err)
	}
	eng, tr := modules.NewEngine(layout), NewTracker(b)
	const branches = 64
	for qid := 1; qid <= layout.Init.MaxEntries/branches+1; qid++ {
		p := &modules.Program{QID: qid}
		for range branches {
			p.Branches = append(p.Branches, &modules.BranchProgram{})
		}
		fits, why := tr.Fits(p)
		ierr := eng.Install(p)
		if fits != (ierr == nil) {
			t.Fatalf("program %d: Fits = %v (%s), but Install = %v", qid, fits, why, ierr)
		}
		if fits {
			tr.Commit(p)
			continue
		}
		if held := (qid - 1) * branches; held != layout.Init.MaxEntries || !strings.Contains(why, "newton_init full") ||
			ierr.Error() != "modules: "+why {
			t.Fatalf("program %d refused over %d entries of newton_init's %d: tracker %q, engine %q",
				qid, held, layout.Init.MaxEntries, why, ierr)
		}
		return
	}
	t.Fatalf("newton_init took %d entries, more than its %d", layout.Init.Entries(), layout.Init.MaxEntries)
}

// TestFitsRefusalIsStable: a program that overflows several banks, or
// several modules, is refused with the same reason every time — the
// operator reads it in `newton-ctl plan`, and it must not depend on map
// iteration order.
func TestFitsRefusalIsStable(t *testing.T) {
	for _, b := range []Budget{
		{Stages: 16, ArraySize: 1, RulesPerModule: 1024},
		{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1},
	} {
		for _, q := range query.All() {
			p := compileAt(t, q, 4096)
			_, want := NewTracker(b).Fits(p)
			for i := 0; i < 32; i++ {
				if _, why := NewTracker(b).Fits(p); why != want {
					t.Fatalf("%s under %+v: refused with %q, then %q", q.Name, b, want, why)
				}
			}
		}
	}
}

func TestFitsClassifierPredicateCapacity(t *testing.T) {
	// Fill the classifier with unrelated predicates so Q1's land exactly
	// at the cap: two identical copies share every predicate, so both
	// must fit — the tracker charges distinct predicates, not entries.
	// One more unrelated predicate and Q1 no longer fits.
	b := Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024}
	p := compileAt(t, query.Q1(40), 4096)
	nPreds := len(NewTracker(b).newPreds(p))
	if nPreds == 0 {
		t.Fatal("Q1 contributes no classifier predicates — capacity test vacuous")
	}
	filled := func(n int) *Tracker {
		tr := NewTracker(b)
		for i := 0; i < n; i++ {
			tr.preds[modules.InitPredKey{Col: -1, Val: uint64(i)}] = 1
		}
		return tr
	}

	exact := filled(classifierPreds - nPreds)
	for i := 0; i < 2; i++ {
		if ok, why := exact.Fits(p); !ok {
			t.Fatalf("copy %d rejected at exact predicate cap (%s) — dedupe broken", i, why)
		}
		exact.Commit(p)
	}

	ok, why := filled(classifierPreds - nPreds + 1).Fits(p)
	if ok {
		t.Fatal("Q1 admitted past the predicate cap")
	}
	if !strings.Contains(why, "predicate capacity") {
		t.Fatalf("rejection reason %q, want predicate-capacity mention", why)
	}
}

func TestTrackerClonePreds(t *testing.T) {
	tr := NewTracker(Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024})
	tr.Commit(compileAt(t, query.Q1(40), 4096))
	clone := tr.Clone()
	if len(clone.preds) != len(tr.preds) {
		t.Fatalf("clone carries %d preds, tracker %d", len(clone.preds), len(tr.preds))
	}
	// Mutating the clone must not leak back.
	clone.preds[modules.InitPredKey{Col: 5, Val: 1, Mask: 1}] = 1
	if len(clone.preds) == len(tr.preds) {
		t.Fatal("clone shares the predicate set with its parent")
	}
}

// TestFitsMatchesEngineInstall holds the tracker to the engine: over
// seeded random sequences of installs, removals and resizes (remove,
// then install at another rung of the width ladder — what the refiner
// does over time) on a device with tight banks, Fits over the installed
// set says yes exactly when Engine.Install does, and a refusal names the
// same overflow. Beside the catalog's programs go fillers, each a
// quarter of one K module's rules and a sixteenth of newton_init, so
// modules and newton_init fill as well as banks. Only a refusal on
// classifier predicates, which the engine does not count, is skipped.
func TestFitsMatchesEngineInstall(t *testing.T) {
	b := Budget{Stages: 16, ArraySize: 8192, RulesPerModule: modules.DefaultRulesPerModule}
	widths := []uint32{256, 512, 1024, 2048, 4096}
	catalog := query.All()
	filler := func(qid, stage int) *modules.Program {
		p := &modules.Program{QID: qid, Branches: []*modules.BranchProgram{{}}}
		for range b.RulesPerModule / 4 {
			p.Branches[0].Ops = append(p.Branches[0].Ops, &modules.Op{
				Kind: modules.ModK, Stage: stage, K: &modules.KConfig{Mask: fields.Keep(fields.DstIP)}})
		}
		for len(p.Branches) < b.RulesPerModule*modules.InitCapacityFactor/16 {
			p.Branches = append(p.Branches, &modules.BranchProgram{})
		}
		return p
	}
	refusals := map[string]int{}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 16))
		layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
		if err != nil {
			t.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		type live struct {
			qid int
			q   *query.Query // nil for a filler
		}
		var installed []live
		nextQID, fullBanks := 1, 0

		// install offers one program to both sides and compares verdicts.
		install := func(step int, qid int, q *query.Query, width uint32) {
			p := filler(qid, 1+rng.IntN(6))
			if q != nil {
				o := compiler.AllOpts()
				o.QID, o.Width = qid, width
				if p, err = compiler.Compile(q, o); err != nil {
					t.Fatalf("Compile %s: %v", q.Name, err)
				}
			}
			tr := NewTracker(b)
			for _, have := range eng.Programs() {
				tr.Commit(have)
			}
			fits, why := tr.Fits(p)
			if strings.Contains(why, "predicate capacity") {
				return // the engine does not count predicates
			}
			ierr := eng.Install(p)
			where := fmt.Sprintf("seed %d step %d: %s qid %d width %d over %d installed", seed, step, p.Name, qid, width, len(installed))
			switch {
			case fits && ierr != nil:
				t.Fatalf("%s: admitted, but the engine refused: %v", where, ierr)
			case !fits && ierr == nil:
				t.Fatalf("%s: rejected (%s), but the engine installed it", where, why)
			case !fits && ierr.Error() != "modules: "+why:
				t.Fatalf("%s: rejected (%s), but the engine refused with %q", where, why, ierr)
			}
			if fits {
				installed = append(installed, live{qid, q})
				return
			}
			for _, kind := range []string{"state bank", "module", "newton_init", "newton_fin"} {
				if strings.Contains(why, kind) {
					refusals[kind]++
					break
				}
			}
			if strings.Contains(why, "state bank") {
				fullBanks++
			}
		}
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(4); {
			case op <= 1 || len(installed) == 0:
				var q *query.Query
				if rng.IntN(3) > 0 {
					q = catalog[rng.IntN(len(catalog))]
				}
				install(step, nextQID, q, widths[rng.IntN(len(widths))])
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
	t.Logf("refusals by what overflowed: %v", refusals)
	for _, kind := range []string{"module", "newton_init"} {
		if refusals[kind] == 0 {
			t.Errorf("no seed filled a %s — its equivalence is vacuous", kind)
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

// TestCommitReleaseRoundTrip: Release is the exact inverse of Commit.
// Every catalog program at three widths, committed over a tracker that
// already holds programs and then released, leaves the tracker equal to
// its prior state; and a predicate two committed programs share stays
// held when one of them is released.
func TestCommitReleaseRoundTrip(t *testing.T) {
	tr := NewTracker(Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 1024})
	tr.Commit(compileAt(t, query.Q1(40), 1024))
	tr.Commit(compileAt(t, query.Q6(40), 512))
	for _, q := range query.All() {
		for _, w := range []uint32{256, 1024, 4096} {
			p := compileAt(t, q, w)
			before := tr.Clone()
			tr.Commit(p)
			if reflect.DeepEqual(tr, before) {
				t.Fatalf("%s at %d: Commit changed nothing", q.Name, w)
			}
			tr.Release(p)
			if !reflect.DeepEqual(tr, before) {
				t.Fatalf("%s at %d: Commit then Release left %+v, want %+v", q.Name, w, tr, before)
			}
		}
	}

	// Find two catalog programs that share some of a's classifier
	// predicates, not all of them.
	b := tr.Budget()
	progs := make([]*modules.Program, 0, 9)
	for _, q := range query.All() {
		progs = append(progs, compileAt(t, q, 1024))
	}
	for _, a := range progs {
		for _, c := range progs {
			held := NewTracker(b)
			held.Commit(c)
			onlyA := len(held.newPreds(a))
			if onlyA == 0 || onlyA == len(NewTracker(b).newPreds(a)) {
				continue
			}
			held.Commit(a)
			held.Release(a)
			if n := len(held.newPreds(c)); n != 0 {
				t.Fatalf("releasing %s dropped %d predicates %s still uses", a.Name, n, c.Name)
			}
			if n := len(held.newPreds(a)); n != onlyA {
				t.Fatalf("after releasing %s, %d of its predicates are free, want the %d %s does not use", a.Name, n, onlyA, c.Name)
			}
			return
		}
	}
	t.Fatal("no two catalog programs share some but not all classifier predicates: the shared case is vacuous")
}
