package controller

import (
	"errors"
	"net"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
)

// bareSwitch builds one 16-stage switch with its module engine loaded.
func bareSwitch(t *testing.T, id string) (*dataplane.Switch, *modules.Engine) {
	t.Helper()
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	sw := dataplane.NewSwitch(id, 16, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	return sw, eng
}

// remoteFixture wires N agents to a Remote controller over in-memory
// pipes and returns the underlying switches for traffic injection.
func remoteFixture(t *testing.T, n int) (*Remote, []*dataplane.Switch) {
	t.Helper()
	agents := map[string]*rpc.Client{}
	var sws []*dataplane.Switch
	for i := 0; i < n; i++ {
		sw, eng := bareSwitch(t, string(rune('a'+i)))
		agent := rpc.NewAgent(sw, eng)
		server, client := net.Pipe()
		go agent.HandleConn(server)
		c := rpc.NewClient(client)
		t.Cleanup(func() { c.Close() })
		agents[sw.ID] = c
		sws = append(sws, sw)
	}
	return NewRemote(agents, 1), sws
}

// fakeAgent is the in-process agent over a bare switch, able to fail:
// reconcile runs against it with no listener and no goroutine.
type fakeAgent struct {
	local
	down  bool // every call fails, touching nothing
	calls int  // calls answered
}

var errDown = errors.New("fake agent down")

func (f *fakeAgent) up() error {
	if f.down {
		return errDown
	}
	f.calls++
	return nil
}

func (f *fakeAgent) Install(p *modules.Program) error {
	if err := f.up(); err != nil {
		return err
	}
	return f.local.Install(p)
}

func (f *fakeAgent) Remove(qid int) error {
	if err := f.up(); err != nil {
		return err
	}
	return f.local.Remove(qid)
}

func (f *fakeAgent) NextEpoch() error {
	if err := f.up(); err != nil {
		return err
	}
	return f.local.NextEpoch()
}

func (f *fakeAgent) DrainReports() ([]dataplane.Report, error) {
	if err := f.up(); err != nil {
		return nil, err
	}
	return f.local.DrainReports()
}

// fakeFixture is remoteFixture without the control channel: the same N
// switches behind fake in-process agents.
func fakeFixture(t *testing.T, n int) (*Remote, []*dataplane.Switch) {
	t.Helper()
	agents := map[string]agent{}
	var sws []*dataplane.Switch
	for i := 0; i < n; i++ {
		sw, eng := bareSwitch(t, string(rune('a'+i)))
		agents[sw.ID] = &fakeAgent{local: local{&netsim.Node{DP: sw, Eng: eng, EndWindow: eng.RollEpoch}}}
		sws = append(sws, sw)
	}
	return newRemote(agents, 1), sws
}

// fixtures are the two transports every reconcile path is held to.
var fixtures = []struct {
	name  string
	build func(*testing.T, int) (*Remote, []*dataplane.Switch)
}{{"rpc", remoteFixture}, {"in-process", fakeFixture}}

// kill makes agent name fail every call from now on.
func kill(r *Remote, name string) {
	switch a := r.agents[name].(type) {
	case *rpc.Client:
		a.Close()
	case *fakeAgent:
		a.down = true
	}
}

func TestRemoteInstallCollectRemove(t *testing.T) {
	r, sws := remoteFixture(t, 2)
	qid, delay, err := r.Install(query.Q1(3), 1<<10, nil)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if delay <= 0 {
		t.Error("no modeled delay")
	}

	for i := 0; i < 10; i++ {
		for _, sw := range sws {
			sw.Process(&packet.Packet{
				TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
				TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
			})
		}
	}
	reports, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 { // one crossing per switch
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if reports[0].Keys.Get(fields.DstIP) != 42 {
		t.Error("report keys lost over the wire")
	}

	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(qid); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(qid); err == nil {
		t.Error("double remove accepted")
	}
}

// TestCollectKeepsDrainedReportsOnPartialFailure: a poll that fails on
// one agent still hands over what the others drained — those reports
// have left their switches for good — and delivers nothing twice.
func TestCollectKeepsDrainedReportsOnPartialFailure(t *testing.T) {
	r, sws := fakeFixture(t, 2)
	if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sws[0].Process(&packet.Packet{
			TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
	}
	kill(r, "b")
	reports, err := r.Collect()
	if !errors.Is(err, errDown) {
		t.Fatalf("Collect err = %v, want agent b's failure", err)
	}
	if len(reports) != 1 || reports[0].SwitchID != "a" {
		t.Fatalf("Collect beside the failure = %+v, want agent a's one report", reports)
	}
	if again, _ := r.Collect(); len(again) != 0 {
		t.Fatalf("second Collect delivered %d reports again", len(again))
	}
}

func TestRemoteInstallRollsBackAcrossAgents(t *testing.T) {
	r, _ := remoteFixture(t, 2)
	// First install succeeds everywhere.
	if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
		t.Fatal(err)
	}
	// Unknown agent mid-list: the whole install unwinds.
	if _, _, err := r.Install(query.Q4(40), 1<<10, []string{"a", "ghost"}); err == nil {
		t.Fatal("install to a ghost agent succeeded")
	}
	// The partially-installed query must be gone from agent "a": a fresh
	// install with the same next QID succeeds.
	if _, _, err := r.Install(query.Q4(40), 1<<10, []string{"a"}); err != nil {
		t.Fatalf("rollback left residue: %v", err)
	}
}

func TestRemoteTargetsSubset(t *testing.T) {
	r, sws := remoteFixture(t, 3)
	if _, _, err := r.Install(query.Q1(3), 1<<10, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for _, sw := range sws {
			sw.Process(&packet.Packet{
				TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
				TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
			})
		}
	}
	reports, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].SwitchID != "b" {
		t.Fatalf("subset targeting wrong: %+v", reports)
	}
}
