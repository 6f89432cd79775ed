package telemetry_test

import (
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/telemetry"
)

// sendSnapshot pushes one snapshot and waits until the service has
// ingested it, so a test's snapshots arrive in the order it sends them.
func sendSnapshot(t *testing.T, svc *telemetry.Service, exp *telemetry.Exporter, epoch uint32, banks []modules.BankSnapshot) {
	t.Helper()
	before := svc.Stats().Snapshots
	if err := exp.ExportSnapshot(epoch, banks); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot ingested", func() bool { return svc.Stats().Snapshots == before+1 })
}

// agingFleet is a service with one exporter per named switch; send is
// sendSnapshot of one three-slot bank per named query.
func agingFleet(t *testing.T, keepEpochs int, switches ...string) (svc *telemetry.Service, send func(sw string, epoch uint32, qids ...int)) {
	t.Helper()
	svc = telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: keepEpochs})
	t.Cleanup(func() { svc.Close() })
	exps := map[string]*telemetry.Exporter{}
	for _, sw := range switches {
		exp := connect(t, svc, sw, telemetry.ExporterConfig{}, nil)
		t.Cleanup(func() { exp.Close() })
		exps[sw] = exp
	}
	return svc, func(sw string, epoch uint32, qids ...int) {
		t.Helper()
		banks := make([]modules.BankSnapshot, len(qids))
		for i, qid := range qids {
			banks[i] = cmsBank(qid, 1, 2, 3)
		}
		sendSnapshot(t, svc, exps[sw], epoch, banks)
	}
}

// TestLateSnapshotAfterRemoveAgesOut: a snapshot in flight when the
// controller removes a query re-learns it — nothing tells the analyzer
// the frame is late. It must not stay: once the switch has sent KeepEpochs
// snapshots that no longer name the query, the switch stops being its
// learned contributor, and a learned query nobody contributes to is
// forgotten like a removed one.
func TestLateSnapshotAfterRemoveAgesOut(t *testing.T) {
	const keep = 3
	svc, send := agingFleet(t, keep, "s1")
	svc.SetExpected(1, []string{"s1"})
	send("s1", 1, 1, 2)
	svc.SetExpected(1, nil)
	if n := svc.Stats().Queries; n != 1 {
		t.Fatalf("after the remove: %d queries resident, want query 2 alone", n)
	}

	send("s1", 2, 1, 2) // exported before the switch heard of the remove
	if got := svc.Contributors(1); !reflect.DeepEqual(got, []string{"s1"}) {
		t.Fatalf("the late snapshot was not re-learned: Contributors(1) = %v", got)
	}
	for e := uint32(3); e < 3+keep; e++ {
		if n := svc.Stats().Queries; n != 2 {
			t.Fatalf("before epoch %d: %d queries resident, want the re-learned one still held", e, n)
		}
		send("s1", e, 2)
	}
	if got := svc.Contributors(1); len(got) != 0 {
		t.Errorf("Contributors(1) = %v after %d snapshots without the query", got, keep)
	}
	if rows := svc.MergedRows(1, 0, 2); len(rows) != 0 {
		t.Errorf("the removed query still serves %d rows", len(rows))
	}
	if n := svc.Stats().Queries; n != 1 {
		t.Errorf("%d queries resident, want query 2 alone", n)
	}
	if got := svc.Contributors(2); !reflect.DeepEqual(got, []string{"s1"}) {
		t.Errorf("the query that still arrives: Contributors(2) = %v", got)
	}
}

// TestLearnedMembershipShrinks: a learned query that moves off a switch
// must not read Partial for ever after. s1 and s2 both host query 1
// (learned) and query 2 (pinned to both); s1 then keeps only query 3.
// After KeepEpochs snapshots of s1 without query 1, its epochs read
// complete on s2 alone and the settled frontier moves again — while the
// pinned query, whose membership is the controller's, still names s1.
func TestLearnedMembershipShrinks(t *testing.T) {
	const keep = 3
	svc, send := agingFleet(t, keep, "s1", "s2")
	svc.SetExpected(2, []string{"s1", "s2"})
	for e := uint32(1); e <= 2; e++ {
		send("s1", e, 1, 2, 3)
		send("s2", e, 1, 2)
	}
	for qid := 1; qid <= 2; qid++ {
		if e, ok := svc.LatestSettledEpoch(qid); !ok || e != 2 {
			t.Fatalf("query %d with both switches: settled %d (%v), want 2", qid, e, ok)
		}
	}

	for e := uint32(3); e < 3+keep; e++ {
		// s2 first: the epoch is judged with s1 still expected.
		send("s2", e, 1, 2)
		if partial, missing, _ := svc.EpochStatus(1, e); !partial || !reflect.DeepEqual(missing, []string{"s1"}) {
			t.Fatalf("epoch %d before s1 aged out: partial=%v missing=%v, want s1 missing", e, partial, missing)
		}
		send("s1", e, 3)
	}
	last := uint32(3 + keep)
	send("s2", last, 1, 2)
	if partial, missing, merged := svc.EpochStatus(1, last); partial || merged != 1 {
		t.Errorf("query 1 at epoch %d on s2 alone: partial=%v missing=%v merged=%d", last, partial, missing, merged)
	}
	if e, ok := svc.LatestSettledEpoch(1); !ok || e != last {
		t.Errorf("query 1 settled at %d (%v), want %d", e, ok, last)
	}
	if rows := svc.MergedRows(1, 0, last); len(rows) != 1 || rows[0].Partial {
		t.Errorf("query 1's rows at epoch %d: %+v", last, rows)
	}

	if partial, missing, _ := svc.EpochStatus(2, last); !partial || !reflect.DeepEqual(missing, []string{"s1"}) {
		t.Errorf("the pinned query at epoch %d: partial=%v missing=%v, want s1 still expected", last, partial, missing)
	}
	if e, ok := svc.LatestSettledEpoch(2); ok && e > 2 {
		t.Errorf("the pinned query settled at %d without s1", e)
	}
	if n := svc.Stats().Queries; n != 3 {
		t.Errorf("%d queries resident, want 3", n)
	}
}
