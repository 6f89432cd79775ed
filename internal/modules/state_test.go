package modules

import (
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
)

// bankLayout is an 8-stage compact layout whose banks admit size
// registers each.
func bankLayout(t *testing.T, size uint32) *Layout {
	t.Helper()
	l, err := NewLayout(LayoutCompact, 8, size)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	return l
}

// TestBankCapacityIsASum pins a bank's admission rule to the one the
// scheduler counts by: the sum of installed widths against ArraySize,
// whatever was installed and removed before. (The offset allocator it
// replaces reused freed space only at the exact width: two halves in,
// the first out, and a quarter no longer fitted.)
func TestBankCapacityIsASum(t *testing.T) {
	eng := NewEngine(bankLayout(t, 8192))
	install := func(qid int, width uint32) error {
		return eng.Install(buildCountProgram(qid, 1<<30, width))
	}
	for qid := 1; qid <= 2; qid++ {
		if err := install(qid, 4096); err != nil {
			t.Fatalf("half %d: %v", qid, err)
		}
	}
	if err := eng.Remove(1); err != nil {
		t.Fatal(err)
	}
	for qid := 3; qid <= 4; qid++ {
		if err := install(qid, 2048); err != nil {
			t.Fatalf("quarter into the freed half: %v", err)
		}
	}
	bank := eng.Layout().BankAt(3, 0)
	if bank.Admitted() != 8192 {
		t.Fatalf("admitted %d registers, want the full 8192", bank.Admitted())
	}
	err := install(5, 1024)
	if err == nil || !strings.Contains(err.Error(), "exhausted (8192 + 1024 > 8192)") {
		t.Fatalf("install past the budget: %v", err)
	}
	if eng.Installed(5) != nil || bank.Admitted() != 8192 {
		t.Fatalf("failed install left state behind: admitted %d", bank.Admitted())
	}
	if got, want := eng.StateHostBytes(), int64(4*8192); got != want {
		t.Fatalf("StateHostBytes = %d, want %d (4 B x installed widths)", got, want)
	}
}

// TestInstallAfterRemoveStartsFromZero: a query installed in the window
// its predecessor was removed in gets registers of its own, so it
// cannot inherit the predecessor's counts.
func TestInstallAfterRemoveStartsFromZero(t *testing.T) {
	eng := NewEngine(bankLayout(t, 4096))
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	const th = 3
	if err := eng.Install(buildCountProgram(1, th, 1024)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < th; i++ {
		sw.Process(synTo(42)) // one short of the report
	}
	if err := eng.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(buildCountProgram(2, th, 1024)); err != nil {
		t.Fatal(err)
	}
	for _, b := range eng.SnapshotBanks() {
		for slot, v := range b.Values {
			if v != 0 {
				t.Fatalf("fresh query's slot %d = %d before its first packet", slot, v)
			}
		}
	}
	for i := 0; i < th; i++ {
		sw.Process(synTo(42))
	}
	if n := sw.PendingReports(); n != 0 {
		t.Fatalf("%d reports after %d packets: the count did not start from zero", n, th)
	}
	sw.Process(synTo(42))
	if rs := sw.DrainReports(); len(rs) != 1 || rs[0].QueryID != 2 {
		t.Fatalf("reports at the full threshold: %+v", rs)
	}
}

// TestSnapshotBanksIntoReusesBuffers: a kept buffer makes the capture
// allocation-free between installs, SnapshotBanks stays fresh and
// caller-owned beside it, and a removed query's values are let go.
func TestSnapshotBanksIntoReusesBuffers(t *testing.T) {
	eng := NewEngine(bankLayout(t, 8192))
	for qid, width := range map[int]uint32{1: 1024, 2: 4096} {
		if err := eng.Install(buildCountProgram(qid, 1<<30, width)); err != nil {
			t.Fatal(err)
		}
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	sw.Process(synTo(42))

	kept := eng.SnapshotBanksInto(nil)
	if len(kept) != 2 || kept[0].QueryID != 1 || kept[1].QueryID != 2 {
		t.Fatalf("banks not in qid order: %+v", kept)
	}
	first := &kept[1].Values[0]
	if n := testing.AllocsPerRun(10, func() { kept = eng.SnapshotBanksInto(kept) }); n != 0 {
		t.Errorf("capture into a kept buffer allocates %.0f times", n)
	}
	if &kept[1].Values[0] != first {
		t.Error("kept Values were replaced, not overwritten")
	}

	fresh := eng.SnapshotBanks()
	sw.Process(synTo(42))
	kept = eng.SnapshotBanksInto(kept)
	var keptSum, freshSum uint32
	for i := range kept[1].Values {
		keptSum += kept[1].Values[i]
		freshSum += fresh[1].Values[i]
	}
	if keptSum != 2 || freshSum != 1 {
		t.Errorf("a later capture reached a SnapshotBanks result: kept %d, fresh %d", keptSum, freshSum)
	}

	if err := eng.Remove(2); err != nil {
		t.Fatal(err)
	}
	kept = eng.SnapshotBanksInto(kept)
	if len(kept) != 1 || kept[:2][1].Values != nil {
		t.Errorf("removed query's capture is still held: %d banks", len(kept))
	}
}
