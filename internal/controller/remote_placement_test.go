package controller

import (
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
)

func TestInstallPlacementPerSwitchPartitions(t *testing.T) {
	r, sws := remoteFixture(t, 3)
	// q4 compiles to 11 stages; at 6 stages per switch it slices into 2
	// partitions. Agents a and b split them; c is untouched.
	parts := map[string][]int{"a": {0}, "b": {1}}
	qid, delay, err := r.Deploy(0, placed(6, parts))
	if err != nil {
		t.Fatalf("placement deploy: %v", err)
	}
	if delay <= 0 {
		t.Error("no modeled delay")
	}
	engs := make([]*modules.Engine, len(sws))
	for i, sw := range sws {
		engs[i] = sw.Monitor.(*modules.Engine)
	}
	if got := engs[0].InstalledCount(); got != 1 {
		t.Errorf("a installed = %d, want 1", got)
	}
	if got := engs[1].InstalledCount(); got != 1 {
		t.Errorf("b installed = %d, want 1", got)
	}
	if got := engs[2].InstalledCount(); got != 0 {
		t.Errorf("c installed = %d, want 0", got)
	}
	if p := engs[0].Programs()[0]; p.Part != 0 {
		t.Errorf("a holds partition %d, want 0", p.Part)
	}
	if p := engs[1].Programs()[0]; p.Part != 1 {
		t.Errorf("b holds partition %d, want 1", p.Part)
	}
	if got := r.want[qid].Parts; !samePartsMap(got, parts) {
		t.Errorf("recorded placement = %v, want %v", got, parts)
	}
	if err := r.Remove(qid); err != nil {
		t.Fatal(err)
	}
	if engs[0].InstalledCount()+engs[1].InstalledCount() != 0 {
		t.Error("Remove left partitions installed")
	}
}

// TestDelayModelsTheSlowestSwitch: a switch's rule batch is every
// program it is handed, so one hosting both partitions models a longer
// delay than either partition alone (same seed, same jitter draw), and
// the fleet-wide rule total is the sum.
func TestDelayModelsTheSlowestSwitch(t *testing.T) {
	deploy := func(parts map[string][]int) pass {
		r, _ := fakeFixture(t, 2)
		_, p, err := r.deploy(0, placed(6, parts))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first, second := deploy(map[string][]int{"a": {0}}), deploy(map[string][]int{"a": {1}})
	both := deploy(map[string][]int{"a": {0, 1}})
	spread := deploy(map[string][]int{"a": {0}, "b": {1}})
	if both.delay <= first.delay || both.delay <= second.delay {
		t.Errorf("two partitions on one switch model %v; alone they model %v and %v", both.delay, first.delay, second.delay)
	}
	if want := max(first.delay, second.delay); spread.delay != want {
		t.Errorf("one partition a switch models %v, want the slower of the two alone, %v", spread.delay, want)
	}
	if both.rules != first.rules+second.rules || spread.rules != both.rules {
		t.Errorf("rules installed: both %d, spread %d, alone %d + %d", both.rules, spread.rules, first.rules, second.rules)
	}
}

func TestInstallPlacementRollsBackAcrossAgents(t *testing.T) {
	r, sws := remoteFixture(t, 2)
	// A ghost agent in the assignment fails the deploy; the partition
	// already installed on a real agent must be rolled back.
	_, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {0}, "ghost": {1}}))
	if err == nil {
		t.Fatal("placement deploy to a ghost agent succeeded")
	}
	perr, ok := err.(*PartialDeployError)
	if !ok {
		t.Fatalf("error type %T, want *PartialDeployError", err)
	}
	if perr.Mode != "placement" {
		t.Errorf("mode = %q, want placement", perr.Mode)
	}
	if res := perr.Residual(); len(res) != 0 {
		t.Errorf("residual rules on %v after rollback", res)
	}
	for i, sw := range sws {
		if got := sw.Monitor.(*modules.Engine).InstalledCount(); got != 0 {
			t.Errorf("switch %d holds %d programs after rollback", i, got)
		}
	}
	// The fleet is clean: a follow-up valid placement deploy succeeds.
	if _, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {0}, "b": {1}})); err != nil {
		t.Fatalf("rollback left residue: %v", err)
	}
}

func TestInstallPlacementRejectsBadArgs(t *testing.T) {
	r, _ := remoteFixture(t, 1)
	if _, _, err := r.Deploy(0, placed(0, map[string][]int{"a": {0}})); err == nil {
		t.Error("zero stagesPer accepted")
	}
	if _, _, err := r.Deploy(0, placed(6, nil)); err == nil {
		t.Error("empty placement accepted")
	}
	if _, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {7}})); err == nil {
		t.Error("out-of-range partition accepted")
	}
	// A target named twice would count in the shard total but hold one
	// shard: half its keys would have no owner.
	if _, _, err := r.Deploy(0, Want{Query: query.Q1(3), Targets: []string{"a", "a"}, Sharded: true}); err == nil {
		t.Error("duplicate target accepted")
	}
}

func TestUpdatePlacementAppliesOnlyTheDelta(t *testing.T) {
	r, sws := remoteFixture(t, 3)
	qid, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {0}, "b": {1}}))
	if err != nil {
		t.Fatal(err)
	}
	engA := sws[0].Monitor.(*modules.Engine)
	keep := engA.Programs()[0]

	// Move partition 1 from b to c; a's assignment is unchanged.
	if err := update(r, qid, map[string][]int{"a": {0}, "c": {1}}); err != nil {
		t.Fatal(err)
	}
	if got := sws[1].Monitor.(*modules.Engine).InstalledCount(); got != 0 {
		t.Errorf("b still holds %d programs", got)
	}
	if got := sws[2].Monitor.(*modules.Engine).InstalledCount(); got != 1 {
		t.Errorf("c holds %d programs, want 1", got)
	}
	// a was not contacted: the identical program instance is installed.
	if ps := engA.Programs(); len(ps) != 1 || ps[0] != keep {
		t.Error("unchanged agent was reinstalled during update")
	}
	if err := update(r, qid, map[string][]int{"a": {0}, "ghost": {1}}); err == nil {
		t.Error("update to a ghost agent succeeded")
	}
	if err := r.Remove(qid); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatePlacementOnlyForPlacementDeploys(t *testing.T) {
	r, _ := remoteFixture(t, 2)
	qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := update(r, qid, map[string][]int{"a": {0}}); err == nil {
		t.Error("placement update accepted a replicate deploy")
	}
	if err := update(r, 999, map[string][]int{"a": {0}}); err == nil {
		t.Error("placement update accepted an unknown qid")
	}
}

func TestPlacementExpectedContributors(t *testing.T) {
	r, _ := remoteFixture(t, 3)
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	r.AttachTelemetry(svc)

	qid, _, err := r.Deploy(0, placed(6, map[string][]int{"a": {0}, "b": {1}}))
	if err != nil {
		t.Fatal(err)
	}
	// Both q4 partitions own state, so before any snapshot arrives the
	// merged epoch is partial with exactly a and b missing — the
	// contributors the deploy pinned.
	partial, missing, _ := svc.EpochStatus(qid, 0)
	if !partial || len(missing) != 2 || missing[0] != "a" || missing[1] != "b" {
		t.Fatalf("expected set = %v (partial=%v), want pinned a,b", missing, partial)
	}

	// Moving partition 1 to c re-pins: now a and c are expected.
	if err := update(r, qid, map[string][]int{"a": {0}, "c": {1}}); err != nil {
		t.Fatal(err)
	}
	_, missing, _ = svc.EpochStatus(qid, 1)
	if len(missing) != 2 || missing[0] != "a" || missing[1] != "c" {
		t.Fatalf("post-update expected set = %v, want a,c", missing)
	}
}

// placed is the Want of a q4 placement deploy at width 1024.
func placed(stagesPer int, parts map[string][]int) Want {
	return Want{Query: query.Q4(3), Width: 1 << 10, StagesPer: stagesPer, Parts: parts}
}

// update moves placement deployment qid to a new assignment.
func update(r *Remote, qid int, parts map[string][]int) error {
	_, _, err := r.Deploy(qid, placed(6, parts))
	return err
}

func samePartsMap(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}
