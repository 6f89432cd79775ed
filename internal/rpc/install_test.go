package rpc

import (
	"encoding/json"
	"fmt"
	"net"
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

// TestInstallBodyIsRules: every catalog program's install frame body is
// at least 5× smaller than the body that carried the program as JSON of
// the engine's structs.
func TestInstallBodyIsRules(t *testing.T) {
	for i := range query.All() {
		p := compileCatalog(t, fmt.Sprintf("q%d", i+1), i+1)
		body, err := json.Marshal(&Request{Type: typeInstall, Program: wire.AppendProgram(nil, p), ID: nextReqID()})
		if err != nil {
			t.Fatal(err)
		}
		asJSON, err := json.Marshal(&struct {
			Type    string           `json:"type"`
			Program *modules.Program `json:"program"`
			ID      uint64           `json:"id"`
		}{typeInstall, p, nextReqID()})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d B, %d B as JSON (%.1f×)", p.Name, len(body), len(asJSON), float64(len(asJSON))/float64(len(body)))
		if len(body)*5 > len(asJSON) {
			t.Errorf("%s: install body %d B, as JSON %d B: want at least 5× smaller", p.Name, len(body), len(asJSON))
		}
	}
}

// TestInstallOfJSONProgramIsRefused: an install in the format that
// carried the program as JSON of the engine's structs, under the key
// "program", reads as an install without a program. The agent refuses
// it and keeps the connection, which then installs the same program
// sent as rules.
func TestInstallOfJSONProgramIsRefused(t *testing.T) {
	agent, _ := testAgent(t)
	server, client := net.Pipe()
	go agent.HandleConn(server)
	defer client.Close()
	p := compileQ1(t, 1)
	asJSON := &struct {
		Type    string           `json:"type"`
		Program *modules.Program `json:"program"`
	}{typeInstall, p}
	if resp := exchange(t, client, asJSON); resp.OK || resp.Error != "install without program" {
		t.Errorf("install of JSON structs: %+v, want the install-without-program refusal", resp)
	}
	if resp := exchange(t, client, &Request{Type: typeInstall, Program: wire.AppendProgram(nil, p)}); !resp.OK {
		t.Errorf("install of rules after the refusal: %+v", resp)
	}
	if n := agent.eng.InstalledCount(); n != 1 {
		t.Errorf("%d programs installed, want 1", n)
	}
}

// exchange writes req on conn and reads the response.
func exchange(t *testing.T, conn net.Conn, req any) Response {
	t.Helper()
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestInstallRemoveRoundTripAllocs: installing q7 over the control
// channel and removing it again — both ends, encode and decode, frames
// and engine — stays within 100 allocations (160 while the program
// travelled as JSON of the engine's structs).
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
	if n > 100 {
		t.Fatalf("q7 install + remove: %.0f allocations, want at most 100", n)
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
