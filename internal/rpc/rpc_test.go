package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/classify"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/wire"
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

// TestInstallRefusesUnknownHashAlgo: a program whose H op names a hash
// algorithm the sketch package does not know is refused at install.
// Installed, it panicked the next packet it hashed, so one install call
// took down the agent's packet path.
func TestInstallRefusesUnknownHashAlgo(t *testing.T) {
	agent, sw := testAgent(t)
	c := pipeClient(t, agent)
	p := compileQ1(t, 1)
	spoiled := 0
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Kind == modules.ModH && op.H.Direct == modules.NoField {
				op.H.Algo = 9
				spoiled++
			}
		}
	}
	if spoiled == 0 {
		t.Fatal("Q1 compiled to no hashing H op")
	}
	if err := c.Install(p); err == nil {
		t.Fatal("a program hashing with algo 9 was installed")
	}
	sw.Process(&packet.Packet{
		IP:  packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
	})
	if st, err := c.Stats(); err != nil || st.Installed != 0 {
		t.Fatalf("after the refusal: %+v, %v", st, err)
	}
}

// TestInstallRefusesUncompilableInit: a program whose newton_init entry
// masks DstIP with 0x00FF00FF — neither a prefix nor within 16 bits of
// care — is refused at install with the classifier's reason, and the
// agent keeps serving: packets, stats, and the next well-formed install.
func TestInstallRefusesUncompilableInit(t *testing.T) {
	agent, sw := testAgent(t)
	c := pipeClient(t, agent)
	p := compileQ1(t, 1)
	p.Branches[0].Init.Values[1] = 0x002A0007
	p.Branches[0].Init.Masks[1] = 0x00FF00FF
	err := c.Install(p)
	if err == nil || !strings.Contains(err.Error(), classify.ErrMaskShape.Error()) {
		t.Fatalf("Install with DstIP mask 0x00FF00FF = %v, want a refusal naming %q", err, classify.ErrMaskShape)
	}
	sw.Process(&packet.Packet{
		IP:  packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 0x002A0007},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
	})
	if st, err := c.Stats(); err != nil || st.Installed != 0 {
		t.Fatalf("after the refusal: %+v, %v", st, err)
	}
	if err := c.Install(compileQ1(t, 2)); err != nil {
		t.Fatalf("well-formed install after the refusal: %v", err)
	}
}

// TestInstallRefusesWrappingWidths: a program sent over the wire whose
// state-bank widths sum past 2^32 in one bank (each owning op twice, at
// 2^31 registers) is refused, and the agent keeps serving the next
// well-formed install. Summed in 32 bits the widths came to zero, were
// admitted, and the install made rows of gigabytes.
func TestInstallRefusesWrappingWidths(t *testing.T) {
	agent, _ := testAgent(t)
	c := pipeClient(t, agent)
	p := compileQ1(t, 1)
	p.Branches = append(p.Branches, p.Clone().Branches...)
	owning := 0
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if op.OwnsRegisters() {
				op.S.WidthHint = 0x80000000
				owning++
			}
		}
	}
	if owning == 0 {
		t.Fatal("Q1 compiled to no owning state-bank op")
	}
	err := c.Install(p)
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("Install with widths summing to 2^32 in a bank = %v, want a bank refusal", err)
	}
	if st, err := c.Stats(); err != nil || st.Installed != 0 || st.RuleEntries != 0 {
		t.Fatalf("after the refusal: %+v, %v", st, err)
	}
	if err := c.Install(compileQ1(t, 2)); err != nil {
		t.Fatalf("well-formed install after the refusal: %v", err)
	}
}

func TestUnknownRequestType(t *testing.T) {
	agent, _ := testAgent(t)
	server, client := net.Pipe()
	go agent.HandleConn(server)
	defer client.Close()
	if resp := exchange(t, client, wire.Request{Call: 99}); resp.OK || resp.Error == "" {
		t.Errorf("unknown call accepted: %+v", resp)
	}
	// The refusal is an answer: the connection keeps serving.
	if resp := exchange(t, client, wire.Request{Call: wire.CallStats}); !resp.OK || !resp.HasStats {
		t.Errorf("stats after the refusal: %+v", resp)
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

// TestFrameLimits: the agent ends a connection on a frame it cannot
// take — a header announcing more than MaxFrame (refused from the
// header, not read), a request cut short inside its frame, a response
// where a request belongs, a stream that dies mid-frame — surfaces
// the error through OnError, and runs nothing.
func TestFrameLimits(t *testing.T) {
	oversized := wire.AppendHeader(nil, wire.KindRequest, 0, nil)
	binary.LittleEndian.PutUint32(oversized[8:12], wire.MaxFrame+1)
	install := wire.AppendRequest(nil, &wire.Request{Call: wire.CallInstall, Program: wire.AppendProgram(nil, compileQ1(t, 1))})
	frame := func(kind wire.Kind, payload []byte) []byte {
		return append(wire.AppendHeader(nil, kind, 0, payload), payload...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"oversized header", oversized, wire.ErrTooLarge},
		{"request cut short", frame(wire.KindRequest, install[:len(install)-1]), wire.ErrTruncated},
		{"response frame", frame(wire.KindResponse, install), wire.ErrMalformed},
		{"stream cut mid-frame", frame(wire.KindRequest, install)[:wire.HeaderSize+10], io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agent, _ := testAgent(t)
			errs := make(chan error, 1)
			agent.OnError = func(err error) { errs <- err }
			server, client := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				agent.HandleConn(server)
			}()
			go func() {
				client.Write(tc.raw)
				client.Close()
			}()
			select {
			case err := <-errs:
				if !errors.Is(err, tc.want) {
					t.Fatalf("surfaced %v, want %v", err, tc.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the agent hung on the frame, or swallowed its error")
			}
			<-done
			if n := agent.eng.InstalledCount(); n != 0 {
				t.Errorf("%d programs installed", n)
			}
		})
	}
}

// TestInstallOfJSONProgramIsRefused: a controller that speaks the
// control channel's former framing — a 4-byte length, then JSON — sends
// an install, once with the program as rules and once as JSON of the
// engine's structs. Its first bytes are no frame magic: the agent
// refuses each stream at the header with wire.ErrBadMagic through
// OnError, runs nothing, and holds no program.
func TestInstallOfJSONProgramIsRefused(t *testing.T) {
	agent, _ := testAgent(t)
	errs := make(chan error, 1)
	agent.OnError = func(err error) { errs <- err }
	p := compileQ1(t, 1)
	for _, req := range []any{
		&struct {
			Type  string `json:"type"`
			Rules []byte `json:"rules"`
			ID    uint64 `json:"id"`
		}{"install", wire.AppendProgram(nil, p), 7},
		&struct {
			Type    string           `json:"type"`
			Program *modules.Program `json:"program"`
		}{"install", p},
	} {
		server, client := net.Pipe()
		go agent.HandleConn(server)
		defer client.Close()
		go WriteFrame(client, req) // the agent hangs up without reading it all
		select {
		case err := <-errs:
			if !errors.Is(err, wire.ErrBadMagic) {
				t.Fatalf("surfaced %v, want wire.ErrBadMagic", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the old peer's install was not refused")
		}
		if n := agent.eng.InstalledCount(); n != 0 {
			t.Fatalf("%d programs installed by an old peer", n)
		}
	}
	if n := agent.ConnErrors(); n != 2 {
		t.Errorf("ConnErrors = %d, want the two old peers", n)
	}
}

// TestProgramSurvivesJSONRoundTrip: the same compiled query installed
// locally and over the control channel takes exactly the same rules —
// the install encoding, which replaced the former JSON one, loses
// nothing the engine needs.
func TestProgramSurvivesJSONRoundTrip(t *testing.T) {
	local, _ := testAgent(t)
	if err := local.eng.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	remoteAgent, _ := testAgent(t)
	c := pipeClient(t, remoteAgent)
	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil || st.Installed != 1 {
		t.Fatalf("stats after the binary install: %+v, %v", st, err)
	}
	if want := local.eng.Layout().TotalRuleEntries(); st.RuleEntries != want {
		t.Errorf("remote footprint %d != local %d", st.RuleEntries, want)
	}
}

// writeRequest sends req on w as one request frame.
func writeRequest(t testing.TB, w io.Writer, req wire.Request) {
	t.Helper()
	if err := wire.WriteFrame(w, wire.KindRequest, 0, wire.AppendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
}

// readResponse reads one response frame from r.
func readResponse(t testing.TB, r io.Reader) wire.Response {
	t.Helper()
	hdr, payload, err := wire.NewFrameReader(r).Next()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != wire.KindResponse {
		t.Fatalf("%v frame where a response belongs", hdr.Kind)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(&resp, payload, ""); err != nil {
		t.Fatal(err)
	}
	return resp
}

// exchange sends req on conn and reads the response.
func exchange(t testing.TB, conn net.Conn, req wire.Request) wire.Response {
	t.Helper()
	writeRequest(t, conn, req)
	return readResponse(t, conn)
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
