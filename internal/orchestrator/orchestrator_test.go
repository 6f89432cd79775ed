package orchestrator

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

// testFleet is a 3-switch linear testbed with real agents over
// in-memory pipes, push telemetry, and 8-stage devices — so an 11-stage
// query must partition (stagesPer derives to 6) while a 6-stage one fits
// a single switch. A test may edit budgets before calling orch.
type testFleet struct {
	*fleet.Fleet
	budgets map[string]scheduler.Budget
}

func newFleet(t *testing.T) *testFleet {
	t.Helper()
	topo, _, _ := topology.Linear(3)
	f, err := fleet.New(topo, fleet.Config{
		Net:      netsim.Config{Stages: 8, ArraySize: 1 << 14},
		Exporter: &telemetry.ExporterConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return &testFleet{Fleet: f, budgets: f.Budgets(256)}
}

func (f *testFleet) orch(t *testing.T) *Orchestrator {
	t.Helper()
	o, err := New(Config{Topo: f.Net.Topo, Budgets: f.budgets}, f.Ctl)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// waitEpochFull polls until the merged epoch carries full provenance or
// the deadline passes (snapshot push is asynchronous).
func waitEpochFull(t *testing.T, svc *telemetry.Service, qid int, epoch uint32) (missing []string, merged int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		partial, miss, m := svc.EpochStatus(qid, epoch)
		if !partial && m > 0 {
			return miss, m
		}
		if time.Now().After(deadline) {
			return miss, m
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOrchestratorEndToEnd(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q4(3), Priority: 2, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})

	p, d, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.StagesPer != 6 {
		t.Fatalf("derived stagesPer = %d, want 6 (8-stage devices minus the continuation prefix)", p.StagesPer)
	}
	q4, q1 := p.Queries[0], p.Queries[1]
	if !q4.Admitted || q4.Single || q4.M != 2 {
		t.Fatalf("q4 plan = %+v, want admitted 2-partition placement", q4)
	}
	if !sameInts(q4.Parts["s1"], []int{0}) || !sameInts(q4.Parts["s2"], []int{1}) || len(q4.Parts) != 2 {
		t.Fatalf("q4 parts = %v, want s1:[0] s2:[1]", q4.Parts)
	}
	if !q1.Admitted || !q1.Single || len(q1.Targets) != 1 || q1.Targets[0] != "s1" {
		t.Fatalf("q1 plan = %+v, want admitted single-switch on s1", q1)
	}
	if len(d.Deltas) != 2 {
		t.Fatalf("initial diff = %v, want 2 installs", d)
	}

	if err := o.Apply(p, d); err != nil {
		t.Fatal(err)
	}

	// Per-switch installs match the plan: s1 holds q4/part0 + q1, s2
	// holds q4/part1, s3 holds nothing.
	if got := f.Switches["s1"].Node.Eng.InstalledCount(); got != 2 {
		t.Errorf("s1 installed = %d, want 2", got)
	}
	if got := f.Switches["s2"].Node.Eng.InstalledCount(); got != 1 {
		t.Errorf("s2 installed = %d, want 1", got)
	}
	if got := f.Switches["s3"].Node.Eng.InstalledCount(); got != 0 {
		t.Errorf("s3 installed = %d, want 0", got)
	}

	// A replan with nothing changed is a no-op diff.
	_, d2, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Empty() {
		t.Fatalf("steady-state diff not empty:\n%s", d2)
	}

	// Both q4 partitions own state banks, so after an epoch tick the
	// merged epoch must carry full provenance: both s1 and s2
	// contributed, nobody is missing.
	qid4 := o.QID("q4_port_scan")
	if qid4 == 0 {
		t.Fatal("q4 not recorded as deployed")
	}
	epoch := f.Switches["s1"].Node.Layout.Epoch()
	if err := f.Ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	missing, merged := waitEpochFull(t, f.Svc, qid4, epoch)
	if len(missing) != 0 || merged != 2 {
		t.Fatalf("epoch %d provenance: missing=%v merged=%d, want none missing from 2 contributors", epoch, missing, merged)
	}

	// Drain s2: the replan must drop exactly s2's partition — an update
	// delta, not a reinstall.
	before := f.Switches["s1"].Node.Eng.Programs()
	o.Drain("s2")
	p3, d3, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(d3.Deltas) != 1 {
		t.Fatalf("drain diff:\n%s\nwant exactly one delta", d3)
	}
	dl := d3.Deltas[0]
	if dl.Action != ActionUpdate || dl.Query != "q4_port_scan" {
		t.Fatalf("drain delta = %+v, want update of q4", dl)
	}
	if len(dl.Add) != 0 || len(dl.Drop) != 1 || !sameInts(dl.Drop["s2"], []int{1}) {
		t.Fatalf("drain delta add=%v drop=%v, want drop s2:[1] only", dl.Add, dl.Drop)
	}
	if err := o.Apply(p3, d3); err != nil {
		t.Fatal(err)
	}

	if got := f.Switches["s2"].Node.Eng.InstalledCount(); got != 0 {
		t.Errorf("s2 still holds %d programs after drain", got)
	}
	// s1 was never touched: the exact same program instances remain
	// installed (no reinstall happened).
	after := f.Switches["s1"].Node.Eng.Programs()
	if len(before) != len(after) {
		t.Fatalf("s1 program count changed %d -> %d across drain", len(before), len(after))
	}
	prev := map[*modules.Program]bool{}
	for _, p := range before {
		prev[p] = true
	}
	for _, p := range after {
		if !prev[p] {
			t.Fatal("s1 got a reinstalled program instance — drain was not a pure delta")
		}
	}

	// Provenance follows the new expected set: the next epoch is full
	// with s1 as the only contributor.
	epoch2 := f.Switches["s1"].Node.Layout.Epoch()
	if err := f.Ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	missing, merged = waitEpochFull(t, f.Svc, qid4, epoch2)
	if len(missing) != 0 || merged != 1 {
		t.Fatalf("post-drain epoch %d: missing=%v merged=%d, want full with 1 contributor", epoch2, missing, merged)
	}
}

func TestOrchestratorDegradesWidthPerSwitch(t *testing.T) {
	f := newFleet(t)
	// Tighten s1's register budget so the full-width q1 cannot fit; the
	// planner must degrade down the ladder rather than reject.
	f.budgets["s1"] = scheduler.Budget{Stages: 8, ArraySize: 2048, RulesPerModule: 256}
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 4096, Edges: []string{"s1"}},
	})
	p, d, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	qp := p.Queries[0]
	if !qp.Admitted {
		t.Fatalf("q1 rejected: %s", qp.Reason)
	}
	if qp.Width >= 4096 {
		t.Fatalf("width = %d, want degraded below 4096", qp.Width)
	}
	if qp.Reason == "" {
		t.Error("degradation left no reason for the operator")
	}
	if err := o.Apply(p, d); err != nil {
		t.Fatalf("admitted plan failed to deploy: %v", err)
	}
}

func TestOrchestratorRejectsOverCommit(t *testing.T) {
	f := newFleet(t)
	// s1 too small for even the minimum width: reject with the switch
	// named in the reason.
	f.budgets["s1"] = scheduler.Budget{Stages: 8, ArraySize: 64, RulesPerModule: 256}
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Queries[0].Admitted {
		t.Fatal("over-committing intent admitted")
	}
	if p.Queries[0].Reason == "" {
		t.Fatal("rejection carries no reason")
	}
}

func TestOrchestratorPriorityOrder(t *testing.T) {
	f := newFleet(t)
	// Room for one partition-1 state bank (1024 registers at the fixed
	// width) but not two: the contended switch admits a single query.
	f.budgets["s2"] = scheduler.Budget{Stages: 8, ArraySize: 1500, RulesPerModule: 256}
	o := f.orch(t)
	lo := Intent{Query: query.Q2(3), Priority: 1, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}}
	hi := Intent{Query: query.Q4(3), Priority: 9, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}}
	o.SetIntents([]Intent{lo, hi})
	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// The high-priority intent wins the contended budget even though it
	// arrived second.
	if !p.Queries[1].Admitted {
		t.Fatalf("high-priority intent rejected: %s", p.Queries[1].Reason)
	}
	if p.Queries[0].Admitted {
		t.Fatal("low-priority intent admitted past the contended budget")
	}
}

func TestOrchestratorRemovedIntentUninstalls(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	p, d, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(p, d); err != nil {
		t.Fatal(err)
	}
	if f.Switches["s1"].Node.Eng.InstalledCount() != 1 {
		t.Fatal("q1 not installed")
	}

	o.SetIntents(nil)
	p2, d2, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Deltas) != 1 || d2.Deltas[0].Action != ActionRemove {
		t.Fatalf("diff after intent withdrawal:\n%s\nwant one remove", d2)
	}
	if err := o.Apply(p2, d2); err != nil {
		t.Fatal(err)
	}
	if got := f.Switches["s1"].Node.Eng.InstalledCount(); got != 0 {
		t.Errorf("s1 still holds %d programs after withdrawal", got)
	}
	if len(o.Deployed()) != 0 {
		t.Error("deployment record not cleared")
	}
}
