package dataplane

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/newton-net/newton/internal/packet"
)

type namedAction string

func (a namedAction) ActionName() string { return string(a) }

func TestTableExactMatch(t *testing.T) {
	tb := NewTable("t", MatchExact, 2, 10)
	id, err := tb.AddRule([]uint64{5, 6}, nil, 0, namedAction("a"))
	if err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	if r := tb.Lookup(5, 6); r == nil || r.ID != id {
		t.Fatal("exact lookup missed")
	}
	if tb.Lookup(5, 7) != nil {
		t.Fatal("exact lookup matched wrong value")
	}
}

func TestTableTernaryPriority(t *testing.T) {
	tb := NewTable("t", MatchTernary, 1, 10)
	lo, _ := tb.AddRule([]uint64{0}, []uint64{0}, 1, namedAction("wildcard"))
	hi, _ := tb.AddRule([]uint64{53}, []uint64{0xFFFF}, 10, namedAction("dns"))
	if r := tb.Lookup(53); r.ID != hi {
		t.Error("high-priority specific rule should win")
	}
	if r := tb.Lookup(99); r.ID != lo {
		t.Error("wildcard should catch the rest")
	}
}

func TestTableTernaryTieBreakByInsertion(t *testing.T) {
	tb := NewTable("t", MatchTernary, 1, 10)
	first, _ := tb.AddRule([]uint64{0}, []uint64{0}, 5, namedAction("first"))
	tb.AddRule([]uint64{0}, []uint64{0}, 5, namedAction("second"))
	if r := tb.Lookup(1); r.ID != first {
		t.Error("equal priority should fall to earliest-installed rule")
	}
}

func TestTableLPM(t *testing.T) {
	tb := NewTable("t", MatchLPM, 1, 10)
	ip := uint64(packet.IPv4Addr("10.1.2.3"))
	w16, _ := tb.AddRule([]uint64{uint64(packet.IPv4Addr("10.1.0.0"))}, []uint64{0xFFFF0000}, 0, namedAction("/16"))
	w24, _ := tb.AddRule([]uint64{uint64(packet.IPv4Addr("10.1.2.0"))}, []uint64{0xFFFFFF00}, 0, namedAction("/24"))
	if r := tb.Lookup(ip); r.ID != w24 {
		t.Error("LPM should pick the /24")
	}
	if r := tb.Lookup(uint64(packet.IPv4Addr("10.1.9.9"))); r.ID != w16 {
		t.Error("LPM should fall back to the /16")
	}
	if tb.Lookup(uint64(packet.IPv4Addr("192.0.2.1"))) != nil {
		t.Error("LPM matched unrelated address")
	}
}

func TestTableRuntimeRemove(t *testing.T) {
	tb := NewTable("t", MatchExact, 1, 10)
	id, _ := tb.AddRule([]uint64{1}, nil, 0, namedAction("x"))
	if err := tb.RemoveRule(id); err != nil {
		t.Fatalf("RemoveRule: %v", err)
	}
	if tb.Lookup(1) != nil {
		t.Error("removed rule still matches")
	}
	if err := tb.RemoveRule(id); err == nil {
		t.Error("double remove should fail")
	}
	if tb.Entries() != 0 {
		t.Errorf("Entries = %d", tb.Entries())
	}
}

func TestTableCapacity(t *testing.T) {
	tb := NewTable("t", MatchExact, 1, 2)
	tb.AddRule([]uint64{1}, nil, 0, namedAction("a"))
	tb.AddRule([]uint64{2}, nil, 0, namedAction("b"))
	if _, err := tb.AddRule([]uint64{3}, nil, 0, namedAction("c")); err == nil {
		t.Error("over-capacity insert should fail")
	}
}

func TestTableArityErrors(t *testing.T) {
	tb := NewTable("t", MatchExact, 2, 10)
	if _, err := tb.AddRule([]uint64{1}, nil, 0, namedAction("a")); err == nil {
		t.Error("wrong value arity accepted")
	}
	if _, err := tb.AddRule([]uint64{1, 2}, []uint64{1}, 0, namedAction("a")); err == nil {
		t.Error("wrong mask arity accepted")
	}
	if _, err := tb.AddRule([]uint64{1, 2}, []uint64{1, ^uint64(0)}, 0, namedAction("a")); err == nil {
		t.Error("partial mask accepted by exact table")
	}
}

func TestTableClear(t *testing.T) {
	tb := NewTable("t", MatchExact, 1, 10)
	tb.AddRule([]uint64{1}, nil, 0, namedAction("a"))
	tb.Clear()
	if tb.Entries() != 0 || tb.Lookup(1) != nil {
		t.Error("Clear left state")
	}
}

func TestTableLookupArityPanics(t *testing.T) {
	tb := NewTable("t", MatchExact, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("bad lookup arity should panic")
		}
	}()
	tb.Lookup(1)
}

func TestTernarySemanticsQuick(t *testing.T) {
	// A ternary rule matches iff (val & mask) == (ruleVal & mask).
	f := func(val, ruleVal, mask uint64) bool {
		tb := NewTable("t", MatchTernary, 1, 4)
		tb.AddRule([]uint64{ruleVal}, []uint64{mask}, 0, namedAction("r"))
		got := tb.Lookup(val) != nil
		want := val&mask == ruleVal&mask
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegisterSALUOps(t *testing.T) {
	ra := NewRegisterArray("r", 8)
	if got := ra.Exec(OpRead, 0, 0); got != 0 {
		t.Errorf("fresh read = %d", got)
	}
	if got := ra.Exec(OpWrite, 0, 42); got != 42 {
		t.Errorf("write returned %d", got)
	}
	if got := ra.Exec(OpAdd, 0, 8); got != 50 {
		t.Errorf("add returned %d, want 50", got)
	}
	if got := ra.Exec(OpOr, 1, 0b10); got != 0 {
		t.Errorf("or should return old value, got %d", got)
	}
	if got := ra.Exec(OpRead, 1, 0); got != 0b10 {
		t.Errorf("or did not store, read %d", got)
	}
}

func TestRegisterEpochReset(t *testing.T) {
	ra := NewRegisterArray("r", 4)
	ra.Exec(OpAdd, 2, 100)
	ra.NextEpoch()
	if got := ra.Exec(OpRead, 2, 0); got != 0 {
		t.Errorf("stale value after epoch: %d", got)
	}
	if got := ra.Exec(OpAdd, 2, 1); got != 1 {
		t.Errorf("add in fresh epoch = %d, want 1", got)
	}
	if ra.Epoch() != 1 {
		t.Errorf("Epoch = %d", ra.Epoch())
	}
}

func TestRegisterOutOfRangePanics(t *testing.T) {
	ra := NewRegisterArray("r", 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	ra.Exec(OpRead, 4, 0)
}

func TestRegisterGeometry(t *testing.T) {
	ra := NewRegisterArray("r", 256)
	if ra.Size() != 256 || ra.MemoryBytes() != 1024 {
		t.Errorf("geometry wrong: %d %d", ra.Size(), ra.MemoryBytes())
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{Crossbar: 1, SRAM: 2}
	b := Resources{Crossbar: 3, TCAM: 1}
	a.Add(b)
	if a[Crossbar] != 4 || a[SRAM] != 2 || a[TCAM] != 1 {
		t.Errorf("Add wrong: %v", a)
	}
	if !a.Fits(Resources{Crossbar: 4, SRAM: 2, TCAM: 1}) {
		t.Error("Fits should accept equality")
	}
	if a.Fits(Resources{Crossbar: 3.9, SRAM: 2, TCAM: 1}) {
		t.Error("Fits should reject overflow")
	}
	u := a.Utilization(Resources{Crossbar: 8, SRAM: 4, TCAM: 2, VLIW: 10})
	if u[Crossbar] != 0.5 || u[SRAM] != 0.5 || u[VLIW] != 0 {
		t.Errorf("Utilization wrong: %v", u)
	}
	s := a.Scale(2)
	if s[Crossbar] != 8 {
		t.Errorf("Scale wrong: %v", s)
	}
	d := s.Sub(Resources{Crossbar: 100})
	if d[Crossbar] != 0 {
		t.Error("Sub should clamp at zero")
	}
}

func TestResourceNames(t *testing.T) {
	want := []string{"Crossbar", "SRAM", "TCAM", "VLIW", "Hash Bits", "SALU", "Gateway"}
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		if k.String() != want[k] {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want[k])
		}
	}
}

func TestStagePlacement(t *testing.T) {
	p := NewPipeline(2, Resources{SRAM: 10, SALU: 2})
	s := p.Stages[0]
	tb := NewTable("m", MatchExact, 1, 16)
	if err := s.Place("m", Resources{SRAM: 6, SALU: 1}, tb, nil); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := s.Place("m2", Resources{SRAM: 6}, nil, nil); err == nil {
		t.Error("overflow placement accepted")
	}
	if err := s.Place("m3", Resources{SRAM: 4, SALU: 1}, nil, NewRegisterBank("rb", 8)); err != nil {
		t.Errorf("fitting placement rejected: %v", err)
	}
	if got := s.Used(); got[SRAM] != 10 || got[SALU] != 2 {
		t.Errorf("Used = %v", got)
	}
	if len(s.Tables()) != 1 || len(s.Banks()) != 1 {
		t.Error("registration lost")
	}
	total := p.TotalUsed()
	if total[SRAM] != 10 {
		t.Errorf("TotalUsed = %v", total)
	}
}

func TestPipelineEpoch(t *testing.T) {
	p := NewPipeline(1, TofinoStageCapacity())
	rb := NewRegisterBank("rb", 4)
	p.Stages[0].Place("rb", Resources{}, nil, rb)
	ra := rb.Alloc(4)
	ra.Exec(OpAdd, 0, 5)
	p.NextEpoch()
	if ra.Exec(OpRead, 0, 0) != 0 {
		t.Error("pipeline epoch did not propagate")
	}
	// An array allocated mid-run joins at the bank's epoch, all zero.
	rb.Free(ra)
	late := rb.Alloc(4)
	if late.Epoch() != 1 || late.Exec(OpAdd, 0, 1) != 1 {
		t.Errorf("late array: epoch %d", late.Epoch())
	}
	p.NextEpoch()
	if ra.Epoch() != 1 || late.Epoch() != 2 {
		t.Errorf("freed array still rolls (%d) or live one does not (%d)", ra.Epoch(), late.Epoch())
	}
}

func TestRegisterBankBudgetIsASum(t *testing.T) {
	rb := NewRegisterBank("rb", 8)
	a, b := rb.Alloc(4), rb.Alloc(4)
	if a == nil || b == nil || rb.Admitted() != 8 {
		t.Fatalf("two halves should fill the bank: admitted %d", rb.Admitted())
	}
	if rb.Alloc(1) != nil {
		t.Error("allocation past the budget accepted")
	}
	rb.Free(a)
	if rb.Alloc(2) == nil || rb.Alloc(2) == nil {
		t.Errorf("freed half should admit two quarters: admitted %d", rb.Admitted())
	}
	if rb.Alloc(1) != nil || rb.Admitted() != 8 {
		t.Errorf("budget not a sum: admitted %d of %d", rb.Admitted(), rb.Size())
	}
	rb.Free(a) // not from this bank any more: ignored
	if rb.Admitted() != 8 {
		t.Errorf("double free changed the budget: %d", rb.Admitted())
	}
}

type countingProgram struct{ n int }

func (cp *countingProgram) Execute(ctx *Context) {
	cp.n++
	if ctx.PHV.Fields.Get(0) == 0 && ctx.Pkt == nil {
		panic("context not populated")
	}
	ctx.Mirror(Report{QueryID: 7})
}

func testPacket(dst string) *packet.Packet {
	return &packet.Packet{
		TS: 100,
		IP: packet.IPv4{TTL: 64, Proto: packet.ProtoTCP,
			Src: packet.IPv4Addr("192.0.2.1"), Dst: packet.IPv4Addr(dst)},
		TCP: &packet.TCP{SrcPort: 1234, DstPort: 80, Flags: packet.FlagSYN},
	}
}

func TestSwitchForwarding(t *testing.T) {
	sw := NewSwitch("s1", 4, TofinoStageCapacity())
	sw.AddRoute(packet.IPv4Addr("10.0.0.0"), 8, 3)
	sw.AddRoute(packet.IPv4Addr("10.1.0.0"), 16, 5)

	if port, ok := sw.Process(testPacket("10.1.2.3")); !ok || port != 5 {
		t.Errorf("LPM route: port=%d ok=%v, want 5", port, ok)
	}
	if port, ok := sw.Process(testPacket("10.9.9.9")); !ok || port != 3 {
		t.Errorf("fallback route: port=%d ok=%v, want 3", port, ok)
	}
	if _, ok := sw.Process(testPacket("203.0.113.1")); ok {
		t.Error("unrouted packet forwarded")
	}
	c := sw.Counters()
	if c.Rx != 3 || c.Tx != 2 || c.Dropped != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSwitchDownDropsEverything(t *testing.T) {
	sw := NewSwitch("s1", 4, TofinoStageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetUp(false)
	if _, ok := sw.Process(testPacket("10.0.0.1")); ok {
		t.Error("down switch forwarded")
	}
	sw.SetUp(true)
	if _, ok := sw.Process(testPacket("10.0.0.1")); !ok {
		t.Error("recovered switch dropped")
	}
}

func TestSwitchMonitorAndReports(t *testing.T) {
	sw := NewSwitch("s1", 4, TofinoStageCapacity())
	sw.AddRoute(0, 0, 1)
	cp := &countingProgram{}
	sw.Monitor = cp
	for i := 0; i < 5; i++ {
		sw.Process(testPacket("10.0.0.1"))
	}
	if cp.n != 5 {
		t.Errorf("monitor ran %d times", cp.n)
	}
	if sw.PendingReports() != 5 {
		t.Errorf("pending = %d", sw.PendingReports())
	}
	reports := sw.DrainReports()
	if len(reports) != 5 || reports[0].SwitchID != "s1" || reports[0].QueryID != 7 || reports[0].TS != 100 {
		t.Errorf("reports wrong: %+v", reports[0])
	}
	if sw.PendingReports() != 0 {
		t.Error("drain did not clear")
	}
}

func TestMatchKindStrings(t *testing.T) {
	if MatchExact.String() != "exact" || MatchTernary.String() != "ternary" || MatchLPM.String() != "lpm" {
		t.Error("match kind names wrong")
	}
}

func TestSALUOpStrings(t *testing.T) {
	if OpRead.String() != "read" || OpOr.String() != "or" {
		t.Error("SALU op names wrong")
	}
}

func TestResourcesString(t *testing.T) {
	r := Resources{SRAM: 1.5}
	if r.String() != "{SRAM=1.5}" {
		t.Errorf("String = %q", r.String())
	}
	var zero Resources
	if zero.String() != "{}" {
		t.Errorf("zero String = %q", zero.String())
	}
}

func BenchmarkSwitchProcess(b *testing.B) {
	sw := NewSwitch("s1", 12, TofinoStageCapacity())
	for i := 0; i < 256; i++ {
		sw.AddRoute(uint32(i)<<24, 8, i%32)
	}
	pkts := make([]*packet.Packet, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range pkts {
		pkts[i] = testPacket(fmt.Sprintf("%d.0.0.1", rng.Intn(256)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkts[i%len(pkts)])
	}
}

func TestTableLookupAll(t *testing.T) {
	tb := NewTable("t", MatchTernary, 1, 10)
	hi, _ := tb.AddRule([]uint64{5}, []uint64{0xFF}, 10, namedAction("specific"))
	lo, _ := tb.AddRule([]uint64{0}, []uint64{0}, 1, namedAction("wildcard"))
	got := tb.LookupAll(5)
	if len(got) != 2 {
		t.Fatalf("LookupAll = %d rules, want 2 (chaining)", len(got))
	}
	if got[0].ID != hi || got[1].ID != lo {
		t.Error("LookupAll not in priority order")
	}
	if n := len(tb.LookupAll(9)); n != 1 {
		t.Errorf("wildcard-only match = %d rules", n)
	}
}

func TestTableLookupAllArityPanics(t *testing.T) {
	tb := NewTable("t", MatchExact, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("bad arity should panic")
		}
	}()
	tb.LookupAll(1)
}
