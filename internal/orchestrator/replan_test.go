package orchestrator

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// TestPlanReusesCompiledRungs holds the compiled-rung memo to a fresh
// recompute: over a seeded life of edits — intents added, withdrawn and
// renamed, a submitted query edited in place, width caps, ladder bounds,
// drains and undrains — the long-lived orchestrator's Plan equals, to
// the last reason, the Plan of a New orchestrator given the same
// intents, caps and drains.
func TestPlanReusesCompiledRungs(t *testing.T) {
	line, _, _ := topology.Linear(4)
	for _, tc := range []struct {
		name string
		topo *topology.Topology
	}{{"linear:4", line}, {"fattree:4", topology.FatTree(4)}} {
		t.Run(tc.name, func(t *testing.T) { replanLife(t, tc.topo, 250, false) })
	}
}

// TestPlanMatchesFreshOrchestrator holds the kept assignments to a fresh
// recompute: TestPlanReusesCompiledRungs's life, plus edits to an
// intent's edge switches (some in place), links taken down and brought
// back up, and each plan's diff recorded as the deployment Apply would
// leave. After every step the long-lived orchestrator's Plan and Diff
// equal those of a New orchestrator given the same intents, caps,
// drains, topology and (deep-copied) deployment record — so a kept
// placement, edge resolution or assignment that outlives what it was
// computed from, or a kept slice written after a plan handed it out,
// shows as a difference.
func TestPlanMatchesFreshOrchestrator(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo func() *topology.Topology
	}{
		{"linear:4", func() *topology.Topology { t, _, _ := topology.Linear(4); return t }},
		{"fattree:4", func() *topology.Topology { return topology.FatTree(4) }},
	} {
		t.Run(tc.name, func(t *testing.T) { replanLife(t, tc.topo(), 300, true) })
	}
}

// replanLife runs a seeded life of edits against one long-lived
// orchestrator and compares every plan with a fresh orchestrator's. A
// rich life also edits edges, flaps links and records deployments.
func replanLife(t *testing.T, topo *topology.Topology, edits int, rich bool) {
	rng := rand.New(rand.NewPCG(uint64(topo.NumNodes()), 31))
	cfg := Config{Topo: topo, Budgets: map[string]scheduler.Budget{}}
	var switches, edges []string
	stages := []int{8, 9, 12}
	if rich {
		stages = []int{9, 12, 12} // more replicas, whose targets follow the edges
	}
	for _, id := range topo.Switches() {
		name := topo.Node(id).Name
		switches = append(switches, name)
		cfg.Budgets[name] = scheduler.Budget{
			Stages:         stages[rng.IntN(3)],
			ArraySize:      []uint32{4096, 8192, 1 << 14}[rng.IntN(3)],
			RulesPerModule: []int{64, 256}[rng.IntN(2)],
		}
	}
	for _, id := range topo.EdgeSwitches() {
		edges = append(edges, topo.Node(id).Name)
	}
	o, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"a", "b", "c", "d", "e", "f"}
	widths := []uint32{0, 256, 300, 512, 1024, 4096}
	catalog := query.All()
	var intents []Intent
	caps, drained := map[string]uint32{}, map[string]bool{}
	setIntents := func() {
		o.SetIntents(intents)
		for name := range caps {
			if !hasIntent(intents, name) {
				delete(caps, name)
			}
		}
	}
	var reused, recompiled, refused, partitioned, flaps, deltas int
	var down [][2]int // links the life took down
	deployed := map[string]deployedState{}
	nextQID := 0
	ops := 9
	if rich {
		ops = 12
	}
	for step := 0; step < edits; step++ {
		var what string
		switch op := rng.IntN(ops); {
		case op <= 1 || len(intents) == 0:
			q := catalog[rng.IntN(len(catalog))].Clone()
			q.Name = names[rng.IntN(len(names))]
			in := Intent{Query: q, Priority: rng.IntN(4), MinWidth: widths[rng.IntN(len(widths))], MaxWidth: widths[rng.IntN(len(widths))]}
			if rng.IntN(2) == 0 {
				in.Edges = []string{edges[rng.IntN(len(edges))]}
			}
			if rng.IntN(4) == 0 {
				in.Accuracy.MaxRelErr = 0.1
			}
			intents = append(intents, in)
			setIntents()
			what = "add " + q.Name
		case op == 2:
			i := rng.IntN(len(intents))
			what = "withdraw " + intents[i].Query.Name
			intents = slices.Delete(intents, i, i+1)
			setIntents()
		case op == 3:
			q := intents[rng.IntN(len(intents))].Query
			what = fmt.Sprintf("rename %s in place", q.Name)
			q.Name = names[rng.IntN(len(names))]
		case op == 4:
			q := intents[rng.IntN(len(intents))].Query
			what = "edit " + q.Name + " in place: " + editQuery(rng, q)
		case op == 5:
			name, w := names[rng.IntN(len(names))], widths[rng.IntN(len(widths))]
			o.SetWidthCap(name, w)
			if w == 0 {
				delete(caps, name)
			} else {
				caps[name] = w
			}
			what = fmt.Sprintf("cap %s at %d", name, w)
		case op == 6:
			in := &intents[rng.IntN(len(intents))]
			in.MinWidth, in.MaxWidth = widths[rng.IntN(len(widths))], widths[rng.IntN(len(widths))]
			setIntents()
			what = fmt.Sprintf("bound %s to [%d, %d]", in.Query.Name, in.MinWidth, in.MaxWidth)
		case op == 9:
			in := &intents[rng.IntN(len(intents))]
			switch {
			case len(in.Edges) > 0 && rng.IntN(2) == 0:
				in.Edges[0] = edges[rng.IntN(len(edges))] // in place: the orchestrator must keep its own copy
			case rng.IntN(3) == 0:
				in.Edges = nil
				setIntents()
			default:
				in.Edges = []string{edges[rng.IntN(len(edges))]}
				if rng.IntN(2) == 0 {
					in.Edges = append(in.Edges, edges[rng.IntN(len(edges))])
				}
				setIntents()
			}
			what = fmt.Sprintf("edges of %s to %v", in.Query.Name, in.Edges)
		case op >= 10:
			if len(down) > 0 && rng.IntN(2) == 0 {
				l := down[len(down)-1]
				down = down[:len(down)-1]
				topo.SetLink(l[0], l[1], true)
				what = fmt.Sprintf("link %s-%s up", topo.Node(l[0]).Name, topo.Node(l[1]).Name)
				break
			}
			a := topo.Switches()[rng.IntN(len(switches))]
			if ns := topo.SwitchNeighbors(a); len(ns) > 0 {
				b := ns[rng.IntN(len(ns))]
				topo.SetLink(a, b, false)
				down = append(down, [2]int{a, b})
				what = fmt.Sprintf("link %s-%s down", topo.Node(a).Name, topo.Node(b).Name)
				flaps++
			}
		default:
			sw := switches[rng.IntN(len(switches))]
			if drained[sw] || len(drained) == len(switches)-1 {
				o.Undrain(sw)
				delete(drained, sw)
				what = "undrain " + sw
			} else {
				o.Drain(sw)
				drained[sw] = true
				what = "drain " + sw
			}
		}

		before := maps.Clone(o.compiled)
		got, gotDiff, gotErr := o.Plan()
		fresh, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetIntents(intents)
		for name, w := range caps {
			fresh.SetWidthCap(name, w)
		}
		for sw := range drained {
			fresh.Drain(sw)
		}
		for name, st := range deployed {
			fresh.deployed[name] = &deployedState{qid: st.qid, plan: deepCopy(st.plan)}
		}
		want, wantDiff, wantErr := fresh.Plan()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotDiff, wantDiff) {
			t.Fatalf("step %d (%s): the replan differs from a fresh plan\nreplan:\n%v%v%v\nfresh:\n%v%v%v",
				step, what, summary(got), gotDiff, gotErr, summary(want), wantDiff, wantErr)
		}
		if rich && gotErr == nil {
			// What Apply records, without agents: the long-lived
			// orchestrator shares the plan's slices as Apply does, the
			// fresh one's record is a deep copy.
			for _, dl := range gotDiff.Deltas {
				deltas++
				if dl.Target == nil {
					delete(o.deployed, dl.Query)
					delete(deployed, dl.Query)
					continue
				}
				qid := dl.QID
				if qid == 0 {
					nextQID++
					qid = nextQID
				}
				o.deployed[dl.Query] = &deployedState{qid: qid, plan: *dl.Target}
				deployed[dl.Query] = deployedState{qid: qid, plan: deepCopy(*dl.Target)}
			}
		}
		for name, ci := range o.compiled {
			if before[name] == ci {
				reused++
			} else {
				recompiled++
			}
		}
		if got != nil {
			for _, qp := range got.Queries {
				switch {
				case !qp.Admitted:
					refused++
				case !qp.Single:
					partitioned++
				}
			}
		}
	}
	if reused == 0 || recompiled == 0 || refused == 0 || partitioned == 0 || rich && (flaps == 0 || deltas == 0) {
		t.Fatalf("vacuous life: %d entries reused, %d compiled, %d refusals, %d partitioned admissions, %d links down, %d deltas",
			reused, recompiled, refused, partitioned, flaps, deltas)
	}
	for _, l := range down {
		topo.SetLink(l[0], l[1], true)
	}

	// The memo lives as long as the intents: after a resubmission it holds
	// only listed names, and no more rungs than the planned intent's
	// ladder has.
	setIntents()
	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for name, ci := range o.compiled {
		i := slices.IndexFunc(p.Queries, func(qp QueryPlan) bool {
			return qp.Intent.Query.Name == name && qp.Reason != duplicateName
		})
		if i < 0 {
			t.Fatalf("compiled rungs kept for %q, which no intent names", name)
		}
		in := p.Queries[i].Intent
		if ladder, err := scheduler.WidthLadder(in.MinWidth, in.MaxWidth); err == nil && len(ci.rungs) > len(ladder) {
			t.Fatalf("%q keeps %d rungs, its ladder has %d", name, len(ci.rungs), len(ladder))
		}
	}
}

// deepCopy copies a plan's targets and parts, so a record of it does
// not change when the planner writes the slices it handed out.
func deepCopy(qp QueryPlan) QueryPlan {
	qp.Targets = slices.Clone(qp.Targets)
	if qp.Parts != nil {
		parts := make(map[string][]int, len(qp.Parts))
		for sw, idxs := range qp.Parts {
			parts[sw] = slices.Clone(idxs)
		}
		qp.Parts = parts
	}
	return qp
}

// editQuery changes q in place the way an operator might: a report
// threshold, or a packet-field predicate's comparison (which moves a
// front filter out of newton_init and so changes the program's stages).
func editQuery(rng *rand.Rand, q *query.Query) string {
	if q.Merge != nil && rng.IntN(2) == 0 {
		q.Merge.Threshold += 1 + int64(rng.IntN(50))
		return "merge threshold"
	}
	var preds []*query.Predicate
	for bi := range q.Branches {
		for pi := range q.Branches[bi].Prims {
			for k := range q.Branches[bi].Prims[pi].Preds {
				preds = append(preds, &q.Branches[bi].Prims[pi].Preds[k])
			}
		}
	}
	if len(preds) == 0 {
		q.Window *= 2
		return "window"
	}
	p := preds[rng.IntN(len(preds))]
	switch {
	case p.OnResult():
		p.Value += 1 + uint64(rng.IntN(50))
		return "result threshold"
	case p.Op == query.CmpEq:
		p.Op = query.CmpGt
	default:
		p.Op = query.CmpEq
	}
	return "predicate " + p.String()
}

func summary(p *Plan) string {
	if p == nil {
		return "<nil plan>\n"
	}
	return Summary(p)
}

// churnLike is the benchmark's churn fleet and intent set at its busiest:
// four 9-stage switches in a line, four tenants' single-switch q1s at the
// ingress edge, a single-switch q7 and a q4 partitioned over s1 and s2.
func churnLike(t testing.TB) *Orchestrator {
	t.Helper()
	topo, _, _ := topology.Linear(4)
	budgets := map[string]scheduler.Budget{}
	for _, sw := range []string{"s1", "s2", "s3", "s4"} {
		budgets[sw] = scheduler.Budget{Stages: 9, ArraySize: 1 << 14, RulesPerModule: 256}
	}
	o, err := New(Config{Topo: topo, Budgets: budgets}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(q *query.Query, name string, prio int) Intent {
		q.Name = name
		return Intent{Query: q, Priority: prio, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}}
	}
	var intents []Intent
	for i := 0; i < 4; i++ {
		intents = append(intents, pinned(query.Q1(40), fmt.Sprintf("t%d/q1", i), 20-i))
	}
	o.SetIntents(append(intents, pinned(query.Q7(40), "t0/q7", 5), pinned(query.Q4(40), "t1/q4", 4)))
	return o
}

// TestReplanAllocs is the ratchet on what a replan of an unchanged
// intent set costs: no compile, no slice, no cloned or new tracker, no
// placement, assignment, ladder or edge resolution — the plan, its
// queries and its diff. The six intents of churnLike took about 730
// allocations a plan while every plan recompiled them, 68 while every
// plan built its trackers, 50 while every plan placed and assigned every
// rung again, and take 3 since the rungs keep their assignments.
func TestReplanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	o := churnLike(t)
	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range p.Queries {
		if !qp.Admitted {
			t.Fatalf("%s refused: %s", qp.Intent.Query.Name, qp.Reason)
		}
	}
	if q4 := p.Queries[5]; q4.Single {
		t.Fatalf("t1/q4 planned on one switch, want partitions: %+v", q4)
	}
	const limit = 5
	if n := testing.AllocsPerRun(20, func() { o.Plan() }); n > limit {
		t.Fatalf("a replan of six unchanged intents allocates %v times, want at most %d", n, limit)
	} else {
		t.Logf("%v allocations a replan", n)
	}
}

// TestDrainReplanAllocs is the ratchet on a replan after Drain("s2"):
// t1/q4's kept placement is filtered to the live switches again, without
// running placement.Place, and the single-switch intents on s1 keep
// their replica assignments. It took 49 allocations while every plan
// placed and assigned every rung, and takes 9 since the rungs keep their
// placements.
func TestDrainReplanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	o := churnLike(t)
	if _, _, err := o.Plan(); err != nil {
		t.Fatal(err)
	}
	q4 := o.compiled["t1/q4"].rungs[0]
	placed := reflect.ValueOf(q4.placed).Pointer()
	const limit = 10
	n := testing.AllocsPerRun(20, func() {
		o.Drain("s2")
		o.Plan()
		o.Undrain("s2")
		o.Plan()
	}) / 2
	if n > limit {
		t.Fatalf("a replan after a drain or an undrain allocates %v times, want at most %d", n, limit)
	}
	t.Logf("%v allocations a replan after a drain or an undrain", n)
	o.Drain("s2")
	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Queries[5].Parts; !reflect.DeepEqual(got, map[string][]int{"s1": {0}}) {
		t.Fatalf("t1/q4 with s2 drained is planned on %v, want s1[0]", got)
	}
	if reflect.ValueOf(q4.placed).Pointer() != placed {
		t.Fatal("a drain ran placement.Place again for t1/q4, whose topology and edges did not move")
	}
}

// TestDuplicateNameDoesNotOrphan: two intents under one query name are
// one deployment. The first in priority order plans and the other is
// refused; before, both deployed, the record kept only the second, and
// withdrawing the name left the first installed on every switch for
// good.
func TestDuplicateNameDoesNotOrphan(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	q3 := query.Q3(3)
	q3.Name = query.Q1(3).Name
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 2, MinWidth: 256, MaxWidth: 1024},
		{Query: q3, Priority: 1, MinWidth: 256, MaxWidth: 1024},
	})
	p, _, err := o.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if first, dup := p.Queries[0], p.Queries[1]; !first.Admitted || dup.Admitted || dup.Reason != duplicateName {
		t.Fatalf("plans %+v and %+v, want the first admitted and the second refused as a duplicate", first, dup)
	}
	o.SetIntents(nil)
	if _, _, err := o.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, sw := range f.Names {
		if n := f.Switches[sw].Node.Eng.InstalledCount(); n != 0 {
			t.Errorf("%s still holds %d programs after every intent was withdrawn", sw, n)
		}
	}
}

// TestChargeRefusalReleases: a refused assignment leaves every tracker
// as it was, though programs before the refusal were committed on the
// way; an accepted one stays committed.
func TestChargeRefusalReleases(t *testing.T) {
	opts := compiler.AllOpts()
	opts.QID, opts.Width = 1, 1024
	p, err := compiler.Compile(query.Q1(40), opts)
	if err != nil {
		t.Fatal(err)
	}
	trackers := map[string]*scheduler.Tracker{
		"s1": scheduler.NewTracker(scheduler.Budget{Stages: 12, ArraySize: 1 << 14}),
		"s2": scheduler.NewTracker(scheduler.Budget{Stages: 12, ArraySize: 64}),
	}
	before := map[string]*scheduler.Tracker{"s1": trackers["s1"].Clone(), "s2": trackers["s2"].Clone()}
	why := charge([]hosting{{sw: "s1", prog: p, part: -1}, {sw: "s1", prog: p, part: 1}, {sw: "s2", prog: p, part: 2}}, trackers)
	if !strings.HasPrefix(why, "s2 (partition 2): ") {
		t.Fatalf("charge = %q, want a refusal naming s2's partition 2", why)
	}
	if !reflect.DeepEqual(trackers, before) {
		t.Fatal("a refused assignment left charges on the trackers")
	}
	if why := charge([]hosting{{sw: "s1", prog: p, part: -1}}, trackers); why != "" {
		t.Fatalf("charge = %q, want accepted", why)
	}
	if reflect.DeepEqual(trackers["s1"], before["s1"]) {
		t.Fatal("an accepted assignment left s1's tracker uncharged")
	}
}
