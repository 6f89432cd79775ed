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
	admitted := func() uint64 { return eng.Layout().ledger.registers(3, 0) }
	if admitted() != 8192 {
		t.Fatalf("admitted %d registers, want the full 8192", admitted())
	}
	err := install(5, 1024)
	if err == nil || !strings.Contains(err.Error(), "exhausted (8192 + 1024 > 8192)") {
		t.Fatalf("install past the budget: %v", err)
	}
	if eng.Installed(5) != nil || admitted() != 8192 {
		t.Fatalf("failed install left state behind: admitted %d", admitted())
	}
	if got, want := eng.StateHostBytes(), int64(4*8192); got != want {
		t.Fatalf("StateHostBytes = %d, want %d (4 B x installed widths)", got, want)
	}

	// A Bloom row is charged its width like any row, and holds a bit a
	// register: a quarter's row in the freed quarter fills the bank again,
	// and the host holds 2048/8 bytes for it.
	if err := eng.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(buildDistinctProgram(6, 2048)); err != nil {
		t.Fatalf("a Bloom row into the freed quarter: %v", err)
	}
	if admitted() != 8192 {
		t.Fatalf("with a Bloom row: admitted %d registers, want 8192", admitted())
	}
	err = eng.Install(buildDistinctProgram(7, 64))
	if err == nil || !strings.Contains(err.Error(), "exhausted (8192 + 64 > 8192)") {
		t.Fatalf("a Bloom row past the budget: %v", err)
	}
	if got, want := eng.StateHostBytes(), int64(4*(4096+2048)+2048/8); got != want {
		t.Fatalf("StateHostBytes = %d, want %d (4 B a counter, 1 bit a Bloom register)", got, want)
	}
}

// buildDistinctProgram is a one-row distinct over DstIP of width
// registers: its state bank (stage 3, suite 0, like buildCountProgram's)
// ORs the constant 1, so its registers are a Bloom row's bits.
func buildDistinctProgram(qid int, width uint32) *Program {
	p := buildCountProgram(qid, 1<<30, width)
	ops := p.Branches[0].Ops
	ops[2].S = &SConfig{ALU: dataplane.OpOr, Operand: OperandConst, Const: 1, WidthHint: width}
	p.Branches[0].Ops = ops[:4]
	return p
}

// TestBankCapacityCannotWrap: a program whose owning widths sum past
// 2^32 in one bank — two rows of 2^31, or one of 2^32 - 1024 beside the
// 1024 held — is refused before a register is allocated: Install would
// otherwise make rows of gigabytes for one request.
func TestBankCapacityCannotWrap(t *testing.T) {
	eng := NewEngine(bankLayout(t, 4096))
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatal(err)
	}
	twoRows := buildCountProgram(2, 1<<30, 0x80000000)
	twoRows.Branches = append(twoRows.Branches, buildCountProgram(2, 1<<30, 0x80000000).Branches[0])
	for _, p := range []*Program{twoRows, buildCountProgram(3, 1<<30, 1<<32-1024)} {
		err := eng.Install(p)
		if err == nil || !strings.Contains(err.Error(), "state bank at stage 3 suite 0 exhausted (1024 + ") {
			t.Fatalf("install of %d branches wrapping the bank: %v", len(p.Branches), err)
		}
		if eng.Installed(p.QID) != nil || eng.Layout().ledger.registers(3, 0) != 1024 {
			t.Fatalf("refused install left state behind: admitted %d", eng.Layout().ledger.registers(3, 0))
		}
		if got := eng.StateHostBytes(); got != 4*1024 {
			t.Fatalf("StateHostBytes = %d after a refused install, want the first query's %d", got, 4*1024)
		}
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

// TestLiveBanksAllocateNothing: the walk the exporter captures with
// hands out the live registers into a kept buffer, allocation-free
// between installs; SnapshotBanks stays fresh and caller-owned beside
// it, surviving the roll the views see; and a removed query's registers
// are let go.
func TestLiveBanksAllocateNothing(t *testing.T) {
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

	kept := eng.LiveBanks(nil)
	if len(kept) != 2 || kept[0].QueryID != 1 || kept[1].QueryID != 2 {
		t.Fatalf("banks not in qid order: %+v", kept)
	}
	if n := testing.AllocsPerRun(10, func() { kept = eng.LiveBanks(kept) }); n != 0 {
		t.Errorf("the walk into a kept buffer allocates %.0f times", n)
	}

	sum := func(vals []uint32) (n uint32) {
		for _, v := range vals {
			n += v
		}
		return n
	}
	fresh := eng.SnapshotBanks()
	if sum(kept[1].Values) != 1 || sum(fresh[1].Values) != 1 {
		t.Fatalf("one packet: live %d, copy %d", sum(kept[1].Values), sum(fresh[1].Values))
	}
	sw.Process(synTo(42))
	if sum(kept[1].Values) != 2 || sum(fresh[1].Values) != 1 {
		t.Errorf("a second packet: live %d, copy %d — the views must see it, the copy must not", sum(kept[1].Values), sum(fresh[1].Values))
	}
	eng.RollEpoch()
	if sum(kept[1].Values) != 0 || sum(fresh[1].Values) != 1 {
		t.Errorf("after the roll: live %d, copy %d — a SnapshotBanks copy must survive it", sum(kept[1].Values), sum(fresh[1].Values))
	}

	if err := eng.Remove(2); err != nil {
		t.Fatal(err)
	}
	kept = eng.LiveBanks(kept)
	if len(kept) != 1 || kept[:2][1].Values != nil {
		t.Errorf("removed query's registers are still held: %d banks", len(kept))
	}
}
