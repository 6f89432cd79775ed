package rpc

import (
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
)

func testAgent(t testing.TB) (*Agent, *dataplane.Switch) {
	t.Helper()
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	sw := dataplane.NewSwitch("s1", 16, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	return NewAgent(sw, eng), sw
}

func pipeClient(t *testing.T, a *Agent) *Client {
	t.Helper()
	server, client := net.Pipe()
	go a.HandleConn(server)
	c := NewClient(client)
	t.Cleanup(func() { c.Close() })
	return c
}

func compileQ1(t testing.TB, qid int) *modules.Program {
	t.Helper()
	o := compiler.AllOpts()
	o.QID = qid
	o.Width = 1 << 10
	p, err := compiler.Compile(query.Q1(3), o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstallProcessDrainOverPipe(t *testing.T) {
	agent, sw := testAgent(t)
	c := pipeClient(t, agent)

	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Installed != 1 || st.RuleEntries == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Traffic crosses the threshold; the report comes back over RPC.
	for i := 0; i < 10; i++ {
		sw.Process(&packet.Packet{
			TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
	}
	reports, err := c.DrainReports()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if reports[0].Keys.Get(fields.DstIP) != 42 {
		t.Errorf("report keys survived JSON poorly: %v", reports[0].Keys.String())
	}

	// Second drain is empty (state cleared remotely).
	if again, _ := c.DrainReports(); len(again) != 0 {
		t.Error("drain did not clear")
	}

	// Epoch tick resets windows remotely.
	if err := c.NextEpoch(); err != nil {
		t.Fatal(err)
	}

	if err := c.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	st, _ = c.Stats()
	if st.Installed != 0 || st.RuleEntries != 0 {
		t.Errorf("post-remove stats = %+v", st)
	}
}

func TestAgentErrors(t *testing.T) {
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)

	if err := c.Remove(99); err == nil {
		t.Error("removing unknown qid should fail")
	}
	p := compileQ1(t, 1)
	if err := c.Install(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(compileQ1(t, 1)); err == nil {
		t.Error("duplicate install should fail")
	}
	// A failed op must not poison the connection.
	if _, err := c.Stats(); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
}

func TestUnknownRequestType(t *testing.T) {
	agent, _ := testAgent(t)
	server, client := net.Pipe()
	go agent.HandleConn(server)
	defer client.Close()
	if err := WriteFrame(client, &Request{Type: "reboot"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(client, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("unknown type accepted: %+v", resp)
	}
}

func TestOverTCP(t *testing.T) {
	agent, sw := testAgent(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go agent.Serve(ln)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Install(compileQ1(t, 7)); err != nil {
		t.Fatal(err)
	}
	sw.Process(&packet.Packet{
		TS: 1, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
	})
	// Two controller connections can coexist.
	c2, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err := c2.Stats()
	if err != nil || st.Installed != 1 {
		t.Fatalf("second client stats: %+v %v", st, err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a dead port should fail")
	}
}

func TestFrameLimits(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	// Oversized inbound frame is rejected without allocation.
	go func() {
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
		client.Write(hdr)
	}()
	var v Response
	errCh := make(chan error, 1)
	go func() { errCh <- ReadFrame(server, &v) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("oversized frame accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("readFrame hung on oversized frame")
	}
}

func TestProgramSurvivesJSONRoundTrip(t *testing.T) {
	// Install the same compiled query locally and remotely; footprints
	// must match, proving the wire encoding loses nothing the engine
	// needs.
	local, _ := testAgent(t)
	if err := local.eng.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	remoteAgent, _ := testAgent(t)
	c := pipeClient(t, remoteAgent)
	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := local.eng.Layout().TotalRuleEntries()
	st, _ := c.Stats()
	if st.RuleEntries != want {
		t.Errorf("remote footprint %d != local %d", st.RuleEntries, want)
	}
}

func BenchmarkRoundTripStats(b *testing.B) {
	layout, err := modules.NewLayout(modules.LayoutCompact, 8, 1024)
	if err != nil {
		b.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	sw := dataplane.NewSwitch("s1", 8, modules.StageCapacity())
	agent := NewAgent(sw, eng)
	server, client := net.Pipe()
	go agent.HandleConn(server)
	c := NewClient(client)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stats(); err != nil {
			b.Fatal(err)
		}
	}
}
