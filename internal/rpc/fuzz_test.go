package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/wire"
)

// framed is v as one control-channel frame.
func framed(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzAgentConn feeds HandleConn what a hostile or broken controller
// could. Whatever arrives, the handler returns once the peer hangs up,
// never panics, and installs nothing unless a well-formed install
// request was among the frames it could read.
func FuzzAgentConn(f *testing.F) {
	q1 := wire.AppendProgram(nil, compileQ1(f, 1))
	install := framed(f, &Request{Type: typeInstall, ID: 7, Program: q1})
	f.Add(install)
	f.Add(append(install, framed(f, &Request{Type: typeRemove, QID: 1})...))
	f.Add(install[:len(install)/2]) // truncated frame
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(framed(f, &Request{Type: typeInstall}))
	// Programs no compiler emits: a module without its config, a kind no
	// suite has, a program cut short, and op totals past the end.
	for _, prog := range [][]byte{
		wire.AppendProgram(nil, &modules.Program{QID: 1, Branches: []*modules.BranchProgram{
			{Ops: []*modules.Op{{Kind: modules.ModK, Stage: 1}}}}}),
		wire.AppendProgram(nil, &modules.Program{QID: 1, Branches: []*modules.BranchProgram{
			{Ops: []*modules.Op{{Kind: 9, Stage: 1, K: &modules.KConfig{}}}}}}),
		q1[:len(q1)/2],
		{wire.ProgramVersion, 1, 0xFF, 0xFF, 0x03, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0},
	} {
		f.Add(framed(f, &Request{Type: typeInstall, Program: prog}))
	}
	f.Add(append(framed(f, &Request{Type: typeEpoch}), framed(f, &Request{Type: typeDrain, DrainAck: 9})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		agent, _ := testAgent(t)
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			agent.HandleConn(server)
		}()
		go io.Copy(io.Discard, client) // the responses; ends with client
		_, _ = client.Write(data)      // the agent may hang up first
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("HandleConn did not return after the peer hung up")
		}

		// The frames the agent could have read, parsed again here: it stops
		// at the first one it cannot.
		sawInstall := false
		for r := bytes.NewReader(data); ; {
			var req Request
			if ReadFrame(r, &req) != nil {
				break
			}
			sawInstall = sawInstall || req.Type == typeInstall && len(req.Program) > 0
		}
		if n := agent.eng.InstalledCount(); n != 0 && !sawInstall {
			t.Fatalf("%d programs installed by a stream without an install request", n)
		}
	})
}
