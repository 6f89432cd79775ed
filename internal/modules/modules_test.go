package modules

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/sketch"
)

func compactLayout(t *testing.T) *Layout {
	t.Helper()
	l, err := NewLayout(LayoutCompact, 8, 4096)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	return l
}

func TestLayoutGeometry(t *testing.T) {
	l := compactLayout(t)
	if l.Stages() != 8 {
		t.Fatalf("Stages = %d", l.Stages())
	}
	for st := 1; st <= 8; st++ {
		for u := 0; u < 2; u++ {
			for k := Kind(0); k < NumKinds; k++ {
				if !l.ledger.hosts(st, u, k) {
					t.Fatalf("compact layout missing %v at stage %d suite %d", k, st, u)
				}
			}
			if !l.HasBank(st, u) {
				t.Fatalf("missing state bank at stage %d suite %d", st, u)
			}
		}
	}
	if l.ledger.hosts(0, 0, ModK) || l.ledger.hosts(9, 0, ModK) || l.ledger.hosts(1, 2, ModK) {
		t.Error("out-of-range stage or suite should host no module")
	}
	if l.HasBank(0, 0) || l.HasBank(9, 0) || l.HasBank(1, 2) {
		t.Error("a state bank outside the layout")
	}
}

// TestNewLayoutRefusesNoStages: a stage count below one is an error
// from NewLayout, not a panic, for either layout kind.
func TestNewLayoutRefusesNoStages(t *testing.T) {
	for _, kind := range []LayoutKind{LayoutNaive, LayoutCompact} {
		for _, stages := range []int{0, -1} {
			if l, err := NewLayout(kind, stages, 1024); err == nil || l != nil {
				t.Errorf("NewLayout(%v, %d) = %v, %v; want a refusal", kind, stages, l, err)
			}
		}
	}
}

func TestNaiveLayoutOneModulePerStage(t *testing.T) {
	l, err := NewLayout(LayoutNaive, 8, 1024)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	// Stage 1 hosts K only, stage 2 H only, stage 3 S only, stage 4 R only.
	wantKinds := []Kind{ModK, ModH, ModS, ModR}
	for st := 1; st <= 8; st++ {
		for k := Kind(0); k < NumKinds; k++ {
			if (k == wantKinds[(st-1)%4]) != l.ledger.hosts(st, 0, k) {
				t.Errorf("naive stage %d kind %v presence wrong", st, k)
			}
		}
	}
}

func TestCompactStageUtilizationIs4xNaive(t *testing.T) {
	// The Table 3 per-stage comparison: the compact layout packs one
	// full suite per metadata set into each stage; naive spreads a suite
	// over 4 stages, so its average per-stage use is a quarter of one
	// suite's.
	suite := SuiteResources()
	base := SwitchP4Usage()
	compact := suite.Utilization(base)
	naive := suite.Scale(0.25).Utilization(base)
	for k := dataplane.ResourceKind(0); k < dataplane.NumResourceKinds; k++ {
		if suite[k] == 0 {
			continue
		}
		if compact[k] != naive[k]*4 {
			t.Errorf("%v: compact %.4f != 4x naive %.4f", k, compact[k], naive[k])
		}
	}
	// Spot-check the calibration against Table 3's published values.
	if got := compact[dataplane.Crossbar]; got < 0.045 || got > 0.050 {
		t.Errorf("compact crossbar utilization %.4f, Table 3 says ~4.756%%", got)
	}
	if got := compact[dataplane.VLIW]; got < 0.16 || got > 0.18 {
		t.Errorf("compact VLIW utilization %.4f, Table 3 says ~16.90%%", got)
	}
}

// buildCountProgram hand-assembles the Q1-style chain:
// count SYNs per dip, report when the count crosses th.
func buildCountProgram(qid int, th int64, width uint32) *Program {
	dip := fields.Keep(fields.DstIP)
	init := InitMatch{}
	init.Values[2] = packet.ProtoTCP
	init.Masks[2] = 0xFF
	init.Values[5] = packet.FlagSYN
	init.Masks[5] = 0xFF
	return &Program{
		QID: qid, Name: "count_syn",
		Branches: []*BranchProgram{{
			Init: init,
			Ops: []*Op{
				{Kind: ModK, Set: 0, Stage: 1, K: &KConfig{Mask: dip}},
				{Kind: ModH, Set: 0, Stage: 2, H: &HConfig{Algo: sketch.CRC32IEEE, Seed: 1, Range: width, Direct: NoField}},
				{Kind: ModS, Set: 0, Stage: 3, S: &SConfig{ALU: dataplane.OpAdd, Operand: OperandConst, Const: 1, WidthHint: width, Row0: true}},
				{Kind: ModR, Set: 0, Stage: 4, R: &RConfig{Entries: []REntry{
					{Lo: -1 << 62, Hi: 1 << 62, Actions: []RAct{{Kind: RActSetGlobal}}},
				}}},
				{Kind: ModR, Set: 0, Stage: 5, R: &RConfig{OnGlobal: true, Entries: []REntry{
					{Lo: th + 1, Hi: th + 1, Actions: []RAct{{Kind: RActReport}}},
					{Lo: th + 2, Hi: 1 << 62},
				}}},
			},
		}},
	}
}

func synTo(dst uint32) *packet.Packet {
	return &packet.Packet{
		TS:  1,
		IP:  packet.IPv4{Proto: packet.ProtoTCP, TTL: 64, Src: 9, Dst: dst},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
	}
}

func TestEngineEndToEndCount(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	p := buildCountProgram(1, 3, 1024)
	if err := eng.Install(p); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	for i := 0; i < 10; i++ {
		sw.Process(synTo(42))
	}
	reports := sw.DrainReports()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want exactly 1 (report-once at crossing)", len(reports))
	}
	r := reports[0]
	if r.Keys.Get(fields.DstIP) != 42 {
		t.Errorf("report keys = %v", r.Keys.String())
	}
	if r.Global != 4 {
		t.Errorf("report global = %d, want 4 (threshold+1)", r.Global)
	}
	if r.QueryID != 1 {
		t.Errorf("report qid = %d", r.QueryID)
	}
}

func TestEngineInitClassification(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.Install(buildCountProgram(1, 0, 1024))
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	// A UDP packet must not enter the SYN-counting chain.
	sw.Process(&packet.Packet{IP: packet.IPv4{Proto: packet.ProtoUDP, Src: 9, Dst: 42}, UDP: &packet.UDP{SrcPort: 1, DstPort: 2}})
	// An ACK must not either.
	pkt := synTo(42)
	pkt.TCP.Flags = packet.FlagACK
	sw.Process(pkt)
	if n := sw.PendingReports(); n != 0 {
		t.Fatalf("%d reports from non-matching traffic", n)
	}
	// The first matching SYN crosses threshold 0.
	sw.Process(synTo(42))
	if n := sw.PendingReports(); n != 1 {
		t.Fatalf("matching SYN produced %d reports", n)
	}
}

func TestEngineWindowEpochReset(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.Install(buildCountProgram(1, 5, 1024))
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	for i := 0; i < 4; i++ {
		sw.Process(synTo(7))
	}
	eng.RollEpoch() // window boundary
	for i := 0; i < 4; i++ {
		sw.Process(synTo(7))
	}
	if n := sw.PendingReports(); n != 0 {
		t.Fatalf("count leaked across window: %d reports", n)
	}
}

// TestRollEpochZeroesInstalledRows: RollEpoch is a layout's one roll.
// After it the layout's epoch has advanced by one and every installed
// row reads zero; a row installed mid-window starts at zero and rolls
// with the others from then on.
func TestRollEpochZeroesInstalledRows(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	// counted sums qid's registers, every qid when qid is 0.
	counted := func(qid int) (n uint64) {
		for _, b := range eng.LiveBanks(nil) {
			if qid == 0 || b.QueryID == qid {
				for _, v := range b.Values {
					n += uint64(v)
				}
			}
		}
		return n
	}
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatal(err)
	}
	for dst := uint32(1); dst <= 5; dst++ {
		sw.Process(synTo(dst))
	}
	if got := counted(1); got != 5 {
		t.Fatalf("q1 counted %d SYNs, want 5", got)
	}
	epoch := l.Epoch()
	eng.RollEpoch()
	if l.Epoch() != epoch+1 {
		t.Fatalf("epoch after one roll = %d, want %d", l.Epoch(), epoch+1)
	}
	if got := counted(0); got != 0 {
		t.Fatalf("installed rows hold %d after the roll, want 0", got)
	}

	sw.Process(synTo(7))
	if err := eng.Install(buildCountProgram(2, 1<<30, 512)); err != nil {
		t.Fatal(err)
	}
	if got := counted(2); got != 0 {
		t.Fatalf("a row installed mid-window holds %d, want 0", got)
	}
	sw.Process(synTo(7))
	if got1, got2 := counted(1), counted(2); got1 != 2 || got2 != 1 {
		t.Fatalf("mid-window counts q1=%d q2=%d, want 2 and 1", got1, got2)
	}
	eng.RollEpoch()
	if l.Epoch() != epoch+2 || counted(0) != 0 {
		t.Fatalf("second roll: epoch %d (want %d), rows hold %d", l.Epoch(), epoch+2, counted(0))
	}
}

func TestEngineInstallRemoveRoundTrip(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	p := buildCountProgram(1, 3, 1024)
	base := l.TotalRuleEntries()
	if err := eng.Install(p); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if got := l.TotalRuleEntries(); got != base+p.RuleCount()+1 { // +1 newton_fin
		t.Errorf("entries after install = %d, want %d", got, base+p.RuleCount()+1)
	}
	if eng.Installed(1) == nil || eng.InstalledCount() != 1 {
		t.Error("program not tracked")
	}
	if err := eng.Install(p); err == nil {
		t.Error("duplicate install accepted")
	}
	if err := eng.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if got := l.TotalRuleEntries(); got != base {
		t.Errorf("entries after remove = %d, want %d (clean removal)", got, base)
	}
	if err := eng.Remove(1); err == nil {
		t.Error("double remove accepted")
	}
	// Reinstall must succeed and reuse the freed registers.
	if err := eng.Install(p); err != nil {
		t.Fatalf("reinstall: %v", err)
	}
}

func TestEngineInstallRollsBackOnFailure(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	p := buildCountProgram(1, 3, 1024)
	// Sabotage: an op at a stage the layout does not have.
	p.Branches[0].Ops[4].Stage = 99
	base := l.TotalRuleEntries()
	if err := eng.Install(p); err == nil {
		t.Fatal("install with bad stage accepted")
	}
	if got := l.TotalRuleEntries(); got != base {
		t.Errorf("failed install leaked %d entries", got-base)
	}
	if eng.InstalledCount() != 0 {
		t.Error("failed install tracked")
	}
}

// ruleCounts lists every rule count of the layout: newton_init's and
// newton_fin's entries, then each module's rules.
func ruleCounts(l *Layout) []int {
	return append([]int{l.Init.Entries(), l.ledger.fin}, l.ledger.rules...)
}

// TestModuleCapacityAndRollback: a module holds DefaultRulesPerModule
// rules; the install that would take one more is refused naming the
// module, and gives back everything it took before reaching it. Remove
// gives back the rest, and a naive layout refuses an op on a kind the
// stage does not host.
func TestModuleCapacityAndRollback(t *testing.T) {
	kOp := func(stage, set int) *Op {
		return &Op{Kind: ModK, Set: set, Stage: stage, K: &KConfig{Mask: fields.Keep(fields.DstIP)}}
	}
	l := compactLayout(t)
	eng := NewEngine(l)
	for qid := 1; qid <= 2; qid++ { // two halves fill K at stage 2 suite 1
		var ops []*Op
		for range DefaultRulesPerModule / 2 {
			ops = append(ops, kOp(2, 1))
		}
		if err := eng.Install(&Program{QID: qid, Branches: []*BranchProgram{{Ops: ops}}}); err != nil {
			t.Fatalf("install %d: %v", qid, err)
		}
	}
	before, total := ruleCounts(l), l.TotalRuleEntries()
	if total != DefaultRulesPerModule+2+2 {
		t.Fatalf("TotalRuleEntries = %d, want %d module rules + 2 newton_init + 2 newton_fin", total, DefaultRulesPerModule)
	}
	// The first branch installs whole; the second reaches the full module.
	err := eng.Install(&Program{QID: 3, Branches: []*BranchProgram{
		{Ops: []*Op{kOp(1, 0), kOp(3, 1)}},
		{Ops: []*Op{kOp(1, 1), kOp(2, 1)}},
	}})
	if err == nil || !strings.Contains(err.Error(), "K module at stage 2 suite 1 full") {
		t.Fatalf("257th rule of K at stage 2 suite 1: Install = %v, want that module full", err)
	}
	if got := ruleCounts(l); !slices.Equal(got, before) || l.TotalRuleEntries() != total {
		t.Fatalf("refused install left counts %v (total %d), want %v (total %d)", got, l.TotalRuleEntries(), before, total)
	}
	for qid := 1; qid <= 2; qid++ {
		if err := eng.Remove(qid); err != nil {
			t.Fatal(err)
		}
	}
	if got := ruleCounts(l); slices.ContainsFunc(got, func(n int) bool { return n != 0 }) || l.TotalRuleEntries() != 0 {
		t.Fatalf("after removing every program: counts %v, total %d", got, l.TotalRuleEntries())
	}

	naive, err := NewLayout(LayoutNaive, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	err = NewEngine(naive).Install(&Program{QID: 1, Branches: []*BranchProgram{{Ops: []*Op{kOp(1, 0), kOp(2, 0)}}}})
	if err == nil || !strings.Contains(err.Error(), "no K module at stage 2 suite 0") {
		t.Fatalf("K op on naive stage 2 (H only): Install = %v", err)
	}
	if naive.TotalRuleEntries() != 0 {
		t.Fatalf("refused install left %d entries on the naive layout", naive.TotalRuleEntries())
	}
}

func TestEngineShardedOwnership(t *testing.T) {
	// Two shards: each key's state lives on exactly one of them, so the
	// two switches together report every key exactly once.
	var reports [2][]dataplane.Report
	for shard := 0; shard < 2; shard++ {
		l := compactLayout(t)
		eng := NewEngine(l)
		p := buildCountProgram(1, 0, 1024)
		s := p.Branches[0].Ops[2].S
		s.OwnerIndex, s.OwnerCount = uint32(shard), 2
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install: %v", err)
		}
		sw := dataplane.NewSwitch("s", 8, StageCapacity())
		sw.AddRoute(0, 0, 1)
		sw.Monitor = eng
		for dst := uint32(0); dst < 64; dst++ {
			sw.Process(synTo(dst))
		}
		reports[shard] = sw.DrainReports()
	}
	// Every key is owned by exactly one shard, so no key reports twice.
	// A couple of keys may collide inside the 1024-cell sketch (the
	// second key of a colliding pair reads an inflated first count and
	// skips the exact report-once crossing) — inherent sketch behavior,
	// not a sharding defect.
	total := len(reports[0]) + len(reports[1])
	if total < 60 || total > 64 {
		t.Fatalf("shards reported %d keys total, want ~64 (each owned key once)", total)
	}
	if len(reports[0]) == 0 || len(reports[1]) == 0 {
		t.Errorf("sharding degenerate: %d/%d", len(reports[0]), len(reports[1]))
	}
	seen := map[uint64]bool{}
	for _, rs := range reports {
		for _, r := range rs {
			k := r.Keys.Get(fields.DstIP)
			if seen[k] {
				t.Fatalf("key %d reported by both shards", k)
			}
			seen[k] = true
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	var phv fields.PHV
	phv.Sets[0].StateResult = 0xAABBCCDD
	phv.Sets[1].StateResult = 7
	var neg5 int64 = -5
	phv.GlobalResult = uint64(neg5)
	pkt := synTo(1)
	sp := pkt.AttachSP(resultHeader(&phv, 42, 3))
	if sp.QID != 42 || sp.Part != 3 {
		t.Errorf("snapshot header = %+v", sp)
	}
	// Wire round trip.
	decoded, err := packet.Decode(pkt.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	var got fields.PHV
	Restore(&got, decoded.SP)
	if got.Sets[0].StateResult != 0xAABBCCDD || got.Sets[1].StateResult != 7 {
		t.Errorf("state lost: %+v", got.Sets)
	}
	if fields.GlobalSigned(got.GlobalResult) != -5 {
		t.Errorf("global = %d, want -5", fields.GlobalSigned(got.GlobalResult))
	}
	if got.QueryID != 42 {
		t.Errorf("qid = %d", got.QueryID)
	}
}

func TestSnapshotClampsGlobal(t *testing.T) {
	var phv fields.PHV
	phv.GlobalResult = 1 << 40
	if sp := resultHeader(&phv, 1, 0); int16(sp.Global) != 32767 {
		t.Errorf("positive clamp = %d", int16(sp.Global))
	}
	var negBig int64 = -(1 << 40)
	phv.GlobalResult = uint64(negBig)
	if sp := resultHeader(&phv, 1, 0); int16(sp.Global) != -32768 {
		t.Errorf("negative clamp = %d", int16(sp.Global))
	}
}

func TestSliceProgram(t *testing.T) {
	p := buildCountProgram(1, 3, 1024) // 5 ops over 5 stages
	parts, err := SliceProgram(p, 3)
	if err != nil {
		t.Fatalf("SliceProgram: %v", err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2 (5 stages / 3 per switch)", len(parts))
	}
	// Partition 1 carries its two R ops plus a cloned K and H so it can
	// re-derive the operation keys and hash the SP header does not carry.
	if parts[0].NumOps() != 3 || parts[1].NumOps() != 4 {
		t.Errorf("op split = %d/%d, want 3/4", parts[0].NumOps(), parts[1].NumOps())
	}
	if parts[1].Branches[0].Ops[0].Kind != ModK || parts[1].Branches[0].Ops[0].Stage != 1 {
		t.Errorf("partition 1 should lead with a cloned K at stage 1: %v", parts[1].Branches[0].Ops[0])
	}
	if parts[1].Part != 1 || parts[1].TotalParts != 2 {
		t.Errorf("partition metadata wrong: %d/%d", parts[1].Part, parts[1].TotalParts)
	}
	if parts[0].QID != 1 || parts[1].QID != 1 {
		t.Error("partition QIDs wrong")
	}
	// Deep copy: mutating a partition op must not touch the original.
	parts[0].Branches[0].Ops[0].K.Mask = fields.Keep(fields.SrcIP)
	if p.Branches[0].Ops[0].K.Mask.Equal(fields.Keep(fields.SrcIP)) {
		t.Error("slice shares config with original")
	}
}

// TestInstallRejectsQIDBeyondSnapshotHeader: the result-snapshot header
// carries 12 bits of qid, so a partitioned program under qid 4096+ would
// never match its own snapshots downstream and go silent. Install must
// refuse it, typed, and leave the data plane untouched; an unpartitioned
// program never rides the header and may use any qid.
func TestInstallRejectsQIDBeyondSnapshotHeader(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	base := l.TotalRuleEntries()
	for _, tc := range []struct {
		qid, perSwitch int
		ok             bool
	}{{4095, 3, true}, {4096, 3, false}, {4096, 10, true}} {
		parts, err := SliceProgram(buildCountProgram(tc.qid, 3, 1024), tc.perSwitch)
		if err != nil {
			t.Fatalf("SliceProgram: %v", err)
		}
		err = eng.Install(parts[0])
		if tc.ok {
			if err != nil {
				t.Fatalf("qid %d in %d parts: %v", tc.qid, len(parts), err)
			}
			if err := eng.Remove(tc.qid); err != nil {
				t.Fatal(err)
			}
		} else if !errors.Is(err, ErrQIDRange) {
			t.Fatalf("qid %d in %d parts: Install = %v, want ErrQIDRange", tc.qid, len(parts), err)
		}
		if got := l.TotalRuleEntries(); got != base {
			t.Fatalf("qid %d: %d table entries left behind", tc.qid, got-base)
		}
	}
}

func TestSliceProgramErrors(t *testing.T) {
	p := buildCountProgram(1, 3, 1024)
	if _, err := SliceProgram(p, 0); err == nil {
		t.Error("zero partition size accepted")
	}
}

func TestSliceProgramSingleSwitch(t *testing.T) {
	p := buildCountProgram(1, 3, 1024)
	parts, err := SliceProgram(p, 10)
	if err != nil || len(parts) != 1 {
		t.Fatalf("whole-fit slice: %d parts, %v", len(parts), err)
	}
	if parts[0].NumOps() != p.NumOps() {
		t.Error("single partition lost ops")
	}
}

func TestProgramCounts(t *testing.T) {
	p := buildCountProgram(1, 3, 1024)
	if p.NumOps() != 5 || p.NumStages() != 5 || p.RuleCount() != 6 {
		t.Errorf("counts: ops=%d stages=%d rules=%d", p.NumOps(), p.NumStages(), p.RuleCount())
	}
}

func TestKindStrings(t *testing.T) {
	if ModK.String() != "K" || ModR.String() != "R" {
		t.Error("kind names wrong")
	}
	op := Op{Kind: ModH, Set: 1, Stage: 3}
	if op.String() != "H1@s3" {
		t.Errorf("op String = %q", op.String())
	}
	if LayoutCompact.String() != "compact" || LayoutNaive.String() != "naive" {
		t.Error("layout names wrong")
	}
	if !strings.HasPrefix(Kind(9).String(), "mod(") {
		t.Error("out-of-range kind")
	}
}

func BenchmarkEngineExecuteQ1(b *testing.B) {
	l, err := NewLayout(LayoutCompact, 8, 4096)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(l)
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		b.Fatal(err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	pkt := synTo(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Process(pkt)
	}
}

func BenchmarkEngineInstallRemove(b *testing.B) {
	l, err := NewLayout(LayoutCompact, 8, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := buildCountProgram(1, 3, 1024)
		if err := eng.Install(p); err != nil {
			b.Fatal(err)
		}
		if err := eng.Remove(1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSliceProgramRejectsSeparatedMergeReads(t *testing.T) {
	// A merge query's cross-branch reads must stay with the banks they
	// read; slicing that separates them is refused with a clear error —
	// the controller then uses larger partitions or defers to the
	// analyzer (§5.2's fallback).
	p := &Program{
		QID: 1, Name: "merge",
		Branches: []*BranchProgram{
			{Ops: []*Op{
				{Kind: ModK, Stage: 1, K: &KConfig{Mask: fields.Keep(fields.DstIP)}},
				{Kind: ModS, Stage: 2, S: &SConfig{ALU: dataplane.OpAdd, Row0: true, WidthHint: 64}},
			}},
			{Ops: []*Op{
				{Kind: ModK, Stage: 1, K: &KConfig{Mask: fields.Keep(fields.DstIP)}},
				{Kind: ModS, Stage: 2, S: &SConfig{ALU: dataplane.OpAdd, Row0: true, WidthHint: 64}},
				{Kind: ModS, Stage: 6, S: &SConfig{ALU: dataplane.OpRead, CrossRead: true, ReadBranch: 0, WidthHint: 64}},
			}},
		},
	}
	if _, err := SliceProgram(p, 3); err == nil {
		t.Fatal("separating slice accepted")
	}
	// A partition size that keeps reader and bank together works.
	parts, err := SliceProgram(p, 6)
	if err != nil {
		t.Fatalf("co-locating slice rejected: %v", err)
	}
	if len(parts) != 1 {
		t.Fatalf("parts = %d", len(parts))
	}
	// A read of a branch with no row-0 bank is invalid outright.
	p.Branches[0].Ops[1].S.Row0 = false
	if _, err := SliceProgram(p, 6); err == nil {
		t.Error("read of bank-less branch accepted")
	}
}
