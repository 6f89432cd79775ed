package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/wire"
)

// probePackets is a fixed SYN, ACK, FIN and UDP datagram: between them
// they reach every catalog query's chains.
func probePackets() []packet.Packet {
	return []packet.Packet{
		{IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN}},
		{IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagACK}, PayloadLen: 100},
		{IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagFIN | packet.FlagACK}},
		{IP: packet.IPv4{Proto: packet.ProtoUDP, Src: 7, Dst: 42},
			UDP: &packet.UDP{SrcPort: 53, DstPort: 53}, PayloadLen: 60},
	}
}

// runProbes sends the probe packets through sw, each as it arrived from
// the wire (no result snapshot), and drains what they report into
// reports, which it returns for the next run.
func runProbes(sw *dataplane.Switch, pkts []packet.Packet, reports []dataplane.Report) []dataplane.Report {
	for i := range pkts {
		pkts[i].SP = nil
		sw.Process(&pkts[i])
	}
	return sw.DrainReportsAppend(reports[:0])
}

// compileCatalog compiles catalog query name at width 1024.
func compileCatalog(t testing.TB, name string, qid int) *modules.Program {
	t.Helper()
	q, err := query.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	o := compiler.AllOpts()
	o.QID, o.Width = qid, 1<<10
	p, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refusedOverRPC installs catalog query name, spoiled by spoil on every
// op it picks, through the rpc door: the install must be refused, the
// probe packets must run, the agent must hold nothing, and it must take
// a well-formed install next.
func refusedOverRPC(t *testing.T, name string, pick func(*modules.Op) bool, spoil func(*modules.Program, *modules.Op)) {
	t.Helper()
	agent, sw := testAgent(t)
	c := pipeClient(t, agent)
	p := compileCatalog(t, name, 1)
	spoiled := 0
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if pick(op) {
				spoil(p, op)
				spoiled++
			}
		}
	}
	if spoiled == 0 {
		t.Fatalf("%s compiled to no op to spoil", name)
	}
	err := c.Install(p)
	if err == nil {
		t.Fatal("the spoiled program was installed")
	}
	t.Log(err)
	runProbes(sw, probePackets(), nil)
	if st, err := c.Stats(); err != nil || st.Installed != 0 || st.RuleEntries != 0 {
		t.Fatalf("after the refusal: %+v, %v", st, err)
	}
	if err := c.Install(compileQ1(t, 2)); err != nil {
		t.Fatalf("well-formed install after the refusal: %v", err)
	}
}

func isKind(k modules.Kind) func(*modules.Op) bool {
	return func(op *modules.Op) bool { return op.Kind == k }
}

func owning(op *modules.Op) bool { return op.OwnsRegisters() }

// TestInstallRefusesDirectFieldPastVector: an H op whose direct field is
// 40 indexed past the 12-field key vector on the first packet it saw.
func TestInstallRefusesDirectFieldPastVector(t *testing.T) {
	refusedOverRPC(t, "q1", isKind(modules.ModH), func(_ *modules.Program, op *modules.Op) { op.H.Direct = 40 })
}

// TestInstallRefusesUnknownALU: a state bank running ALU op 99 panicked
// the register array on the first packet it counted.
func TestInstallRefusesUnknownALU(t *testing.T) {
	refusedOverRPC(t, "q1", owning, func(_ *modules.Program, op *modules.Op) { op.S.ALU = 99 })
}

// TestInstallRefusesOperandFieldPastVector: q8 sums a packet field; read
// as field 77 it indexed past the field vector.
func TestInstallRefusesOperandFieldPastVector(t *testing.T) {
	refusedOverRPC(t, "q8", func(op *modules.Op) bool {
		return op.Kind == modules.ModS && op.S.Operand == modules.OperandField
	}, func(_ *modules.Program, op *modules.Op) { op.S.Field = 77 })
}

func TestInstallRefusesUnknownKind(t *testing.T) {
	refusedOverRPC(t, "q1", isKind(modules.ModK), func(_ *modules.Program, op *modules.Op) { op.Kind = 9 })
}

func TestInstallRefusesThirdMetadataSet(t *testing.T) {
	refusedOverRPC(t, "q1", isKind(modules.ModR), func(_ *modules.Program, op *modules.Op) { op.Set = 2 })
}

func TestInstallRefusesModuleWithoutConfig(t *testing.T) {
	refusedOverRPC(t, "q1", isKind(modules.ModH), func(_ *modules.Program, op *modules.Op) { op.H = nil })
}

func TestInstallRefusesUnknownOperand(t *testing.T) {
	refusedOverRPC(t, "q1", owning, func(_ *modules.Program, op *modules.Op) { op.S.Operand = 3 })
}

// TestInstallRefusesCrossReadPastBranches: q6 merges its branches by
// reading another branch's Row0 bank; here it names a branch past the
// program's.
func TestInstallRefusesCrossReadPastBranches(t *testing.T) {
	refusedOverRPC(t, "q6", func(op *modules.Op) bool {
		return op.Kind == modules.ModS && op.S.CrossRead
	}, func(p *modules.Program, op *modules.Op) { op.S.ReadBranch = len(p.Branches) })
}

// TestInstallRefusesOwnerPastCount: a key-sharded bank whose owner index
// is past its owner count is a shard no switch owns.
func TestInstallRefusesOwnerPastCount(t *testing.T) {
	refusedOverRPC(t, "q1", owning, func(_ *modules.Program, op *modules.Op) {
		op.S.OwnerIndex, op.S.OwnerCount = 3, 3
	})
}

// TestInstallRefusesMultiBitOr: a Bloom row's registers are bits, so an
// or op — q3's distinct rows — of a field or the hash, or of a constant
// other than 1, is refused: it would need registers of more than a bit.
func TestInstallRefusesMultiBitOr(t *testing.T) {
	or := func(op *modules.Op) bool { return owning(op) && op.S.ALU == dataplane.OpOr }
	for name, spoil := range map[string]func(*modules.SConfig){
		"field operand": func(s *modules.SConfig) { s.Operand = modules.OperandField },
		"hash operand":  func(s *modules.SConfig) { s.Operand = modules.OperandHash },
		"constant 2":    func(s *modules.SConfig) { s.Const = 2 },
		"constant 0":    func(s *modules.SConfig) { s.Const = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			refusedOverRPC(t, "q3", or, func(_ *modules.Program, op *modules.Op) { spoil(op.S) })
		})
	}
}

func TestInstallRefusesUnknownResultAction(t *testing.T) {
	refusedOverRPC(t, "q1", func(op *modules.Op) bool {
		return op.Kind == modules.ModR && len(op.R.Entries) > 0 && len(op.R.Entries[0].Actions) > 0
	}, func(_ *modules.Program, op *modules.Op) { op.R.Entries[0].Actions[0].Kind = 17 })
}

func TestInstallRefusesPartPastTotal(t *testing.T) {
	refusedOverRPC(t, "q1", isKind(modules.ModK), func(p *modules.Program, _ *modules.Op) {
		p.Part, p.TotalParts = 2, 2
	})
}

// TestInstallBodyIsRules: every catalog program's install frame, header
// included, is at least 5× smaller than the body that carried the
// program as JSON of the engine's structs.
func TestInstallBodyIsRules(t *testing.T) {
	for i := range query.All() {
		p := compileCatalog(t, fmt.Sprintf("q%d", i+1), i+1)
		req := wire.Request{Call: wire.CallInstall, Program: wire.AppendProgram(nil, p), ID: nextReqID()}
		var frame bytes.Buffer
		writeRequest(t, &frame, req)
		asJSON, err := json.Marshal(&struct {
			Type    string           `json:"type"`
			Program *modules.Program `json:"program"`
			ID      uint64           `json:"id"`
		}{"install", p, nextReqID()})
		if err != nil {
			t.Fatal(err)
		}
		body := frame.Len()
		t.Logf("%s: %d B, %d B as JSON (%.1f×)", p.Name, body, len(asJSON), float64(len(asJSON))/float64(body))
		if body*5 > len(asJSON) {
			t.Errorf("%s: install frame %d B, as JSON %d B: want at least 5× smaller", p.Name, body, len(asJSON))
		}
	}
}

// callAllocs is the mean allocations, both ends of the control channel
// counted, of measured, each run after setup.
func callAllocs(t *testing.T, runs int, setup, measured func()) float64 {
	t.Helper()
	var before, after runtime.MemStats
	total := uint64(0)
	for i := 0; i <= runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		measured()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first run sizes the kept buffers
			total += after.Mallocs - before.Mallocs
		}
	}
	return float64(total) / float64(runs)
}

// TestInstallRemoveRoundTripAllocs: installing q7 over the control
// channel and removing it again — both ends, encode and decode, frames
// and engine — stays within 45 allocations (160 while the program
// travelled as JSON of the engine's structs, 85 while binary programs
// rode length-framed JSON requests).
func TestInstallRemoveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder state and perturbs allocation counts")
	}
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)
	p := compileCatalog(t, "q7", 7)
	n := testing.AllocsPerRun(20, func() {
		if err := c.Install(p); err != nil {
			t.Fatal(err)
		}
		if err := c.Remove(7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("q7 install + remove over the control channel: %.0f allocations", n)
	if n > 45 {
		t.Fatalf("q7 install + remove: %.0f allocations, want at most 45", n)
	}
}

// TestRemoveRoundTripAllocs: removing an installed q7 over the control
// channel costs at most 8 allocations, both ends counted (25 over
// length-framed JSON).
func TestRemoveRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)
	p := compileCatalog(t, "q7", 7)
	n := callAllocs(t, 20, func() {
		if err := c.Install(p); err != nil {
			t.Fatal(err)
		}
	}, func() {
		if err := c.Remove(7); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("q7 remove over the control channel: %.1f allocations", n)
	if n > 8 {
		t.Fatalf("q7 remove: %.1f allocations, want at most 8", n)
	}
}

// TestEmptyDrainAllocs: draining a switch that holds no reports over the
// control channel — what a poll of a quiet switch costs — allocates
// nothing at either end once the agent's replay cache is full, but for
// the odd rehash of the cache's index: at most one allocation in twenty
// drains (21 a drain over length-framed JSON).
func TestEmptyDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)
	drain := func() {
		if rs, err := c.DrainReports(); err != nil || len(rs) != 0 {
			t.Fatalf("drain: %d reports, %v", len(rs), err)
		}
	}
	for i := 0; i < replayCap; i++ {
		drain()
	}
	n := callAllocs(t, 2*replayCap, func() {}, drain)
	t.Logf("empty drain over the control channel: %.4f allocations", n)
	if n > 0.05 {
		t.Fatalf("empty drain: %.4f allocations, want at most 0.05", n)
	}
}

// TestOneReportDrainAllocs: draining a switch that holds one report
// over the control channel makes one allocation, both ends counted: the
// slice handed to the caller. The report's switch ID is the string the
// client decoded last (2 allocations while each drain made it anew).
func TestOneReportDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	agent, sw := testAgent(t)
	c := pipeClient(t, agent)
	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	dst := uint32(100)
	pkt := &packet.Packet{IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN}}
	oneReport := func() { // q1 reports a destination's fourth SYN in a window
		dst++
		pkt.IP.Dst = dst
		for i := 0; i < 4; i++ {
			sw.Process(pkt)
		}
		agent.NextEpoch() // the next destination counts from zero
	}
	drain := func() {
		if rs, err := c.DrainReports(); err != nil || len(rs) != 1 || rs[0].SwitchID != "s1" {
			t.Fatalf("drain: %d reports, %v", len(rs), err)
		}
	}
	for i := 0; i < replayCap; i++ {
		oneReport()
		drain()
	}
	n := callAllocs(t, 2*replayCap, oneReport, drain)
	t.Logf("one-report drain over the control channel: %.2f allocations", n)
	if n > 1.05 {
		t.Fatalf("one-report drain: %.2f allocations, want at most 1", n)
	}
}

// FuzzInstallExecute throws byte-mutated catalog encodings at the door a
// controller's install comes through: decode, then Engine.Install. Each
// input is refused, or it is a program the probe packets run through
// without a panic and without allocating.
func FuzzInstallExecute(f *testing.F) {
	for i := range query.All() {
		f.Add(wire.AppendProgram(nil, compileCatalog(f, fmt.Sprintf("q%d", i+1), i+1)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := wire.DecodeProgram(b)
		if err != nil {
			return
		}
		agent, sw := testAgent(t)
		if agent.eng.Install(p) != nil {
			return
		}
		pkts, reports := probePackets(), runProbes(sw, probePackets(), nil)
		n := testing.AllocsPerRun(5, func() { reports = runProbes(sw, pkts, reports) })
		if n != 0 && !raceEnabled {
			t.Fatalf("the probe packets allocate %.1f times a run", n)
		}
	})
}
