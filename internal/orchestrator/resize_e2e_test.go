package orchestrator

import (
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// TestOrchestratorResizeEndToEnd drives a width change through the full
// stack — plan diff, controller resize, agent reinstall, telemetry
// transition provenance — and checks the contract the refiner depends
// on: the qid survives, neighbor queries are untouched, the transition
// epoch reads Partial, and the next epoch is clean at the new geometry.
func TestOrchestratorResizeEndToEnd(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	o.SetIntents([]Intent{
		{Query: query.Q1(50), Priority: 2, MinWidth: 256, MaxWidth: 8192,
			Edges: []string{"s1"}, Accuracy: query.Accuracy{MaxRelErr: 0.25}},
		{Query: query.Q4(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	if _, _, err := o.Converge(); err != nil {
		t.Fatal(err)
	}
	qid1, qid4 := o.QID("q1_new_tcp_connections"), o.QID("q4_port_scan")
	if qid1 == 0 || qid4 == 0 {
		t.Fatalf("deploy incomplete: qids %d/%d", qid1, qid4)
	}
	if got := o.Deployed()["q1_new_tcp_connections"].Width; got != 256 {
		t.Fatalf("frugal-start width = %d, want 256", got)
	}

	// A settled pre-resize epoch.
	epoch := f.Switches["s1"].Node.Layout.Epoch()
	if err := f.Ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, missing, merged := accountedEpoch(t, f, qid1, epoch); len(missing) != 0 || merged != 1 {
		t.Fatalf("pre-resize epoch: missing=%v merged=%d", missing, merged)
	}

	// The refiner's decision, replayed by hand: pin 1024 and replan. The
	// diff must be exactly one delta keeping q1's qid — no remove, no
	// install.
	q4Before := f.Switches["s2"].Node.Eng.Programs()
	o.SetWidthCap("q1_new_tcp_connections", 1024)
	p, d, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deltas) != 1 {
		t.Fatalf("resize diff:\n%swant exactly one delta", d)
	}
	if dl := d.Deltas[0]; dl.QID != qid1 || dl.Target == nil || dl.Target.Width != 1024 || !samePlan(*dl.Target, p.Queries[0]) {
		t.Fatalf("resize delta = %+v, want qid %d at its planned width-1024 target", dl, qid1)
	}
	if err := o.Apply(p, d); err != nil {
		t.Fatal(err)
	}

	// The qid survived and the neighbor's program instances are the
	// exact same objects — the resize touched only q1.
	if got := o.QID("q1_new_tcp_connections"); got != qid1 {
		t.Fatalf("resize changed qid %d -> %d", qid1, got)
	}
	q4After := f.Switches["s2"].Node.Eng.Programs()
	if len(q4Before) != len(q4After) {
		t.Fatalf("s2 program count changed %d -> %d across q1 resize", len(q4Before), len(q4After))
	}
	prev := map[*modules.Program]bool{}
	for _, p := range q4Before {
		prev[p] = true
	}
	for _, p := range q4After {
		if !prev[p] {
			t.Fatal("s2 got a reinstalled program — the resize leaked to a neighbor")
		}
	}

	// The first post-resize epoch merges banks filled from a mid-window
	// restart: it must read Partial (width transition) even though the
	// only contributor delivered.
	tEpoch := f.Switches["s1"].Node.Layout.Epoch()
	if err := f.Ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	if partial, missing, merged := accountedEpoch(t, f, qid1, tEpoch); merged == 0 || !partial || len(missing) != 0 {
		t.Fatalf("transition epoch %d: merged=%d partial=%v missing=%v, want partial with none missing", tEpoch, merged, partial, missing)
	}
	if qa, ok := f.Svc.ObservedAccuracy(qid1, tEpoch, 50); !ok || !qa.Transition {
		t.Fatalf("ObservedAccuracy(transition) = %+v ok=%v, want Transition", qa, ok)
	}

	// The next epoch is clean at the new geometry.
	cEpoch := f.Switches["s1"].Node.Layout.Epoch()
	if err := f.Ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, missing, merged := accountedEpoch(t, f, qid1, cEpoch); len(missing) != 0 || merged != 1 {
		t.Fatalf("post-resize epoch %d: missing=%v merged=%d, want clean", cEpoch, missing, merged)
	}
	qa, ok := f.Svc.ObservedAccuracy(qid1, cEpoch, 50)
	if !ok || qa.Transition || qa.Width != 1024 {
		t.Fatalf("post-resize accuracy = %+v ok=%v, want clean width-1024 estimate", qa, ok)
	}
	// And the settled frontier lands on the clean epoch, not the
	// transition one.
	if e, ok := f.Svc.LatestSettledEpoch(qid1); !ok || e != cEpoch {
		t.Fatalf("LatestSettledEpoch = %d/%v, want %d", e, ok, cEpoch)
	}
}
