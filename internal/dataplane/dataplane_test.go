package dataplane

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/newton-net/newton/internal/classify"
	"github.com/newton-net/newton/internal/packet"
)

type namedAction string

func (a namedAction) ActionName() string { return string(a) }

// full is one column's exact-match mask.
var full = []uint64{^uint64(0)}

func TestTableExactMatch(t *testing.T) {
	tb := NewTable("t", MatchTernary, 2, 10)
	id, err := tb.AddRule([]uint64{5, 6}, []uint64{^uint64(0), ^uint64(0)}, 0, namedAction("a"))
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
	tb := NewTable("t", MatchTernary, 1, 10)
	id, _ := tb.AddRule([]uint64{1}, full, 0, namedAction("x"))
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
	tb := NewTable("t", MatchTernary, 1, 2)
	tb.AddRule([]uint64{1}, full, 0, namedAction("a"))
	tb.AddRule([]uint64{2}, full, 0, namedAction("b"))
	if _, err := tb.AddRule([]uint64{3}, full, 0, namedAction("c")); err == nil {
		t.Error("over-capacity insert should fail")
	}
}

func TestTableArityErrors(t *testing.T) {
	tb := NewTable("t", MatchTernary, 2, 10)
	if _, err := tb.AddRule([]uint64{1}, []uint64{1, 1}, 0, namedAction("a")); err == nil {
		t.Error("wrong value arity accepted")
	}
	if _, err := tb.AddRule([]uint64{1, 2}, []uint64{1}, 0, namedAction("a")); err == nil {
		t.Error("wrong mask arity accepted")
	}
	if _, err := tb.AddRule([]uint64{1, 2}, nil, 0, namedAction("a")); err == nil {
		t.Error("missing masks accepted")
	}
}

func TestTableClear(t *testing.T) {
	tb := NewTable("t", MatchTernary, 1, 10)
	tb.AddRule([]uint64{1}, full, 0, namedAction("a"))
	tb.Clear()
	if tb.Entries() != 0 || tb.Lookup(1) != nil {
		t.Error("Clear left state")
	}
}

func TestTableLookupArityPanics(t *testing.T) {
	tb := NewTable("t", MatchTernary, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("bad lookup arity should panic")
		}
	}()
	tb.Lookup(1)
}

func TestTernarySemanticsQuick(t *testing.T) {
	// A ternary rule matches iff (val & mask) == (ruleVal & mask). The
	// mask is a prefix, a small flag-style mask or raw bits; a table
	// refuses (with the classifier's reason) only a mask that is neither
	// a prefix nor within 16 bits of care.
	f := func(val, ruleVal, bits uint64, shape uint8) bool {
		mask := bits
		switch shape % 3 {
		case 0:
			mask = ^uint64(0) << (bits % 65)
		case 1:
			mask = bits & 0xFFFF
		}
		tb := NewTable("t", MatchTernary, 1, 4)
		if _, err := tb.AddRule([]uint64{ruleVal}, []uint64{mask}, 0, namedAction("r")); err != nil {
			return errors.Is(err, classify.ErrMaskShape) && shape%3 == 2
		}
		for _, v := range []uint64{val, ruleVal, ruleVal ^ val&^mask} {
			if got, want := tb.Lookup(v) != nil, v&mask == ruleVal&mask; got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegisterSALUOps(t *testing.T) {
	ra := NewRegisterArray(8)
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
	ra := NewRegisterArray(4)
	ra.Exec(OpAdd, 2, 100)
	ra.Reset()
	if got := ra.Exec(OpRead, 2, 0); got != 0 {
		t.Errorf("stale value after epoch: %d", got)
	}
	if got := ra.Exec(OpAdd, 2, 1); got != 1 {
		t.Errorf("add in fresh epoch = %d, want 1", got)
	}
}

func TestRegisterOutOfRangePanics(t *testing.T) {
	ra := NewRegisterArray(4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	ra.Exec(OpRead, 4, 0)
}

func TestRegisterGeometry(t *testing.T) {
	ra := NewRegisterArray(256)
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
	u := a.Utilization(Resources{Crossbar: 8, SRAM: 4, TCAM: 2, VLIW: 10})
	if u[Crossbar] != 0.5 || u[SRAM] != 0.5 || u[VLIW] != 0 {
		t.Errorf("Utilization wrong: %v", u)
	}
	s := a.Scale(2)
	if s[Crossbar] != 8 {
		t.Errorf("Scale wrong: %v", s)
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
	sw := NewSwitch("s1", 4, Resources{})
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
	sw := NewSwitch("s1", 4, Resources{})
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
	sw := NewSwitch("s1", 4, Resources{})
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

// serialProgram mirrors one report a packet, numbered in its State.
type serialProgram struct{ n uint64 }

func (p *serialProgram) Execute(ctx *Context) {
	p.n++
	ctx.Mirror(Report{State: p.n})
}

// TestDrainedReportsAreTheCallers: the slice DrainReports hands off is
// never written again. The reports mirrored after it go to a new buffer
// sized for as many as were drained, so a drain's worth of them costs
// one allocation; a buffer that restarted from nil made 8 for these 100.
// Reports a lane above 0 mirrored join the drained slice after lane 0's,
// each lane in its own order, and hand off the same way: what either
// lane mirrors next leaves the slice alone.
func TestDrainedReportsAreTheCallers(t *testing.T) {
	sw := NewSwitch("s1", 4, Resources{})
	sw.AddRoute(0, 0, 1)
	sw.Monitor = &serialProgram{}
	pkt := testPacket("10.0.0.1")
	const batch = 100
	for i := 0; i < batch; i++ {
		sw.Process(pkt)
	}
	n := testing.AllocsPerRun(20, func() {
		held := sw.DrainReports()
		first := held[0].State
		for i := 0; i < batch; i++ {
			sw.Process(pkt)
		}
		if len(held) != batch || held[0].State != first || held[batch-1].State != first+batch-1 {
			t.Fatalf("mirrors after the drain changed the drained slice: %d reports, %d..%d",
				len(held), held[0].State, held[len(held)-1].State)
		}
	})
	if n != 1 {
		t.Fatalf("a drain's worth of reports allocates %.2f times, want 1", n)
	}

	sw.DrainReports()
	sw.SetLanes(2)
	for i := 0; i < batch/2; i++ {
		sw.ProcessLane(pkt, 1)
		sw.Process(pkt)
	}
	held := sw.DrainReports()
	if len(held) != batch {
		t.Fatalf("drained %d reports, want %d", len(held), batch)
	}
	for i := 0; i < batch/2; i++ {
		// Lane 1 ran each pair's first packet, lane 0 its second.
		if lane0, lane1 := held[i].State, held[batch/2+i].State; lane0 != held[0].State+uint64(2*i) || lane1 != lane0-1 {
			t.Fatalf("report %d: lane 0 state %d, lane 1 state %d: not lane 0 first, each lane in order", i, lane0, lane1)
		}
	}
	want := slices.Clone(held)
	for i := 0; i < batch; i++ {
		sw.ProcessLane(pkt, 1)
		sw.Process(pkt)
	}
	if c := cap(sw.lanes[0].reports); c != batch || !slices.Equal(held, want) {
		t.Fatalf("after mirrors on both lanes: lane 0 buffer of %d (want %d), drained slice intact %v",
			c, batch, slices.Equal(held, want))
	}
}

// TestProcessLanePastSetLanesPanics: a lane the switch was never sized
// for is a caller bug, not a second user of lane 0.
func TestProcessLanePastSetLanesPanics(t *testing.T) {
	sw := NewSwitch("s1", 4, Resources{})
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(2)
	sw.ProcessLane(testPacket("10.0.0.1"), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ProcessLane on lane 2 of 2 did not panic")
		}
		if c := sw.Counters(); c.Rx != 1 {
			t.Fatalf("rx = %d after the refused packet, want 1", c.Rx)
		}
	}()
	sw.ProcessLane(testPacket("10.0.0.1"), 2)
}

func TestMatchKindStrings(t *testing.T) {
	if MatchTernary.String() != "ternary" || MatchLPM.String() != "lpm" {
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
	sw := NewSwitch("s1", 12, Resources{})
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
	tb := NewTable("t", MatchTernary, 2, 10)
	defer func() {
		if recover() == nil {
			t.Error("bad arity should panic")
		}
	}()
	tb.LookupAll(1)
}
