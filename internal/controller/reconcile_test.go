package controller

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
)

// held lists what an engine holds as sorted "qid/part" strings.
func held(eng *modules.Engine) []string {
	out := []string{}
	for _, p := range eng.Programs() {
		out = append(out, fmt.Sprintf("%d/%d", p.QID, p.Part))
	}
	sort.Strings(out)
	return out
}

func engineOf(sw *dataplane.Switch) *modules.Engine { return sw.Monitor.(*modules.Engine) }

// assertPlacement checks every switch's engine against the recorded
// assignment of the one placement deployment qid: exactly the recorded
// partitions, and nothing anywhere else.
func assertPlacement(t *testing.T, when string, r *Remote, sws []*dataplane.Switch, qid int) {
	t.Helper()
	rec := r.want[qid].Parts
	for _, sw := range sws {
		want := []string{}
		for _, k := range rec[sw.ID] {
			want = append(want, fmt.Sprintf("%d/%d", qid, k))
		}
		if got := held(engineOf(sw)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: switch %s holds %v, recorded assignment says %v", when, sw.ID, got, want)
		}
	}
}

// TestUpdatePlacementFailureLeavesNoOrphans: an update that adds two
// switches and fails on the second must not strand the first one's
// partition where no record knows about it. The touched switches go
// back to the previous assignment, so Reconverge and Remove see the
// whole truth.
func TestUpdatePlacementFailureLeavesNoOrphans(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 4)
			old := map[string][]int{"a": {0}, "b": {1}}
			qid, _, err := r.Deploy(0, placed(6, old))
			if err != nil {
				t.Fatal(err)
			}
			kill(r, "d") // the second of the two additions fails
			if err := update(r, qid, map[string][]int{"a": {0}, "c": {1}, "d": {1}}); err == nil {
				t.Fatal("update through a dead agent succeeded")
			}
			if got := r.want[qid].Parts; !samePartsMap(got, old) {
				t.Fatalf("failed update recorded %v, want the previous %v", got, old)
			}
			if got := r.obs.rollbacks; got != 2 {
				t.Errorf("rollback steps = %d, want 2 (b restored, c cleared)", got)
			}
			assertPlacement(t, "after the failed update", r, sws, qid)
			if err := r.Reconverge(); err != nil {
				t.Fatalf("Reconverge: %v", err)
			}
			assertPlacement(t, "after reconverge", r, sws, qid)
			if err := r.Remove(qid); err != nil {
				t.Fatal(err)
			}
			for _, sw := range sws {
				if got := held(engineOf(sw)); len(got) != 0 {
					t.Errorf("after remove: switch %s still holds %v", sw.ID, got)
				}
			}
		})
	}
}

// rejoinFleet is TestRejoinReconcilesDeferredWork's fleet of three: the
// controller, the engines behind it, a way to cut switch b off and bring
// it back, and how many control calls b has answered.
type rejoinFleet struct {
	r             *Remote
	eng           map[string]*modules.Engine
	cut, heal     func()
	answeredCalls func() int
}

func rejoinOverTCP(t *testing.T) rejoinFleet {
	fast := rpc.Options{
		Timeout: 100 * time.Millisecond, Retries: 1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1,
	}
	agents := map[string]*rpc.Client{}
	fas := map[string]*faultyAgent{}
	f := rejoinFleet{eng: map[string]*modules.Engine{}}
	for _, id := range []string{"a", "b", "c"} {
		fas[id] = newFaultyAgent(t, id, faults.Config{Seed: 11})
		agents[id] = fas[id].client(t, fast)
		f.eng[id] = fas[id].eng
	}
	f.r = NewRemote(agents, 1)
	f.cut, f.heal = fas["b"].inj.Partition, fas["b"].inj.Heal
	f.answeredCalls = fas["b"].a.ReplayCacheLen
	return f
}

func rejoinInProcess(t *testing.T) rejoinFleet {
	r, sws := fakeFixture(t, 3)
	f := rejoinFleet{r: r, eng: map[string]*modules.Engine{}}
	for _, sw := range sws {
		f.eng[sw.ID] = engineOf(sw)
	}
	b := r.agents["b"].(*fakeAgent)
	f.cut, f.heal = func() { b.down = true }, func() { b.down = false }
	f.answeredCalls = func() int { return b.calls }
	return f
}

// TestRejoinReconcilesDeferredWork: while a switch is offline its
// placement partition moves away and another of its queries is removed;
// both succeed without contacting it, and a change that needs it fails
// before any switch is touched. Re-admitting it must leave it with
// exactly its wanted programs — through a flush that fails and leaves
// the work pending, a retry that succeeds, and an agent that restarted
// while away (it answers not-installed, which is success).
func TestRejoinReconcilesDeferredWork(t *testing.T) {
	for _, fx := range []struct {
		name  string
		build func(*testing.T) rejoinFleet
	}{{"rpc", rejoinOverTCP}, {"in-process", rejoinInProcess}} {
		t.Run(fx.name, func(t *testing.T) {
			f := fx.build(t)
			r, engB := f.r, f.eng["b"]
			moved, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {0}, "b": {1}}))
			if err != nil {
				t.Fatal(err)
			}
			gone, _, err := r.Install(query.Q1(3), 1<<10, []string{"b"})
			if err != nil {
				t.Fatal(err)
			}
			kept, _, err := r.Install(query.Q1(5), 1<<10, []string{"b", "c"})
			if err != nil {
				t.Fatal(err)
			}
			keptProg := fmt.Sprintf("%d/0", kept)

			if err := r.SetOffline("b", true); err != nil {
				t.Fatal(err)
			}
			f.cut()
			if err := update(r, moved, map[string][]int{"a": {0}, "c": {1}}); err != nil {
				t.Fatalf("moving a partition off an offline switch: %v", err)
			}
			if err := r.Remove(gone); err != nil {
				t.Fatalf("removing a query held by an offline switch: %v", err)
			}
			if got := r.obs.deferredRemoves; got != 2 {
				t.Errorf("deferred removes = %d, want 2", got)
			}
			if got := held(engB); len(got) != 3 {
				t.Fatalf("offline switch was contacted: holds %v", got)
			}

			// A change that needs the offline switch is refused in preflight:
			// no switch moves, so there is nothing to roll back.
			_, _, err = r.Install(query.Q1(7), 1<<10, []string{"a", "b"})
			var perr *PartialDeployError
			if !errors.As(err, &perr) || perr.Failed != "b" || len(perr.Undone) != 0 {
				t.Fatalf("deploy onto an offline switch = %v, want a preflight refusal naming b", err)
			}
			if got := held(f.eng["a"]); len(got) != 1 {
				t.Fatalf("refused deploy reached switch a: holds %v", got)
			}

			// Still partitioned: the rejoin reconcile fails and the work stays
			// pending.
			if err := r.SetOffline("b", false); err == nil {
				t.Fatal("rejoin through a partition succeeded")
			}
			if got := held(engB); len(got) != 3 {
				t.Fatalf("failed rejoin changed the switch: holds %v", got)
			}

			// The agent restarts one of the stale programs away, then the
			// partition heals: the retry removes the rest.
			if err := engB.Remove(gone); err != nil {
				t.Fatal(err)
			}
			f.heal()
			if err := r.SetOffline("b", false); err != nil {
				t.Fatalf("rejoin after heal: %v", err)
			}
			if got := held(engB); len(got) != 1 || got[0] != keptProg {
				t.Fatalf("rejoined switch holds %v, want exactly [%s]", got, keptProg)
			}
			if got := r.obs.flushedRemoves; got != 2 {
				t.Errorf("flushed removes = %d, want 2", got)
			}
			// Nothing is left pending: another rejoin contacts nobody.
			before := f.answeredCalls()
			if err := r.SetOffline("b", false); err != nil {
				t.Fatal(err)
			}
			if after := f.answeredCalls(); after != before {
				t.Errorf("settled rejoin issued %d calls", after-before)
			}
		})
	}
}

// TestTickRollsEveryHealthyAgent: one dead agent must not keep the
// others from rolling their window — epochs would skew across the
// fleet by map order.
func TestTickRollsEveryHealthyAgent(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 3)
			if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
				t.Fatal(err)
			}
			epoch := func(i int) uint32 { return engineOf(sws[i]).Layout().Epoch() }
			a0, c0 := epoch(0), epoch(2)
			kill(r, "b")
			if err := r.Tick(); err == nil {
				t.Fatal("Tick with a dead agent reported success")
			}
			if epoch(0) != a0+1 || epoch(2) != c0+1 {
				t.Errorf("healthy agents' epochs = %d, %d, want %d, %d", epoch(0), epoch(2), a0+1, c0+1)
			}
			if got := r.obs.tickFailures; got != 1 {
				t.Errorf("tick failures = %d, want 1 (one per failing agent)", got)
			}
		})
	}
}

// TestReplicateTargetChangeKeepsQID: a replicated query's target set is
// just another assignment — moving it keeps the qid and contacts only
// the switches whose share changed.
func TestReplicateTargetChangeKeepsQID(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 3)
			w := Want{Query: query.Q1(3), Width: 1 << 10, Targets: []string{"a", "b"}}
			qid, _, err := r.Deploy(0, w)
			if err != nil {
				t.Fatal(err)
			}
			keep := engineOf(sws[0]).Programs()[0]
			w.Targets = []string{"a", "c"}
			got, _, err := r.Deploy(qid, w)
			if err != nil || got != qid {
				t.Fatalf("Deploy(%d) = %d, %v, want the same qid", qid, got, err)
			}
			if ps := engineOf(sws[0]).Programs(); len(ps) != 1 || ps[0] != keep {
				t.Error("unchanged target was reinstalled")
			}
			if b, c := held(engineOf(sws[1])), held(engineOf(sws[2])); len(b) != 0 || len(c) != 1 {
				t.Errorf("after the move b holds %v and c holds %v, want none and one", b, c)
			}
		})
	}
}
