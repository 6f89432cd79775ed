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

// framed is req as one control-channel frame.
func framed(t testing.TB, req wire.Request) []byte {
	t.Helper()
	var b bytes.Buffer
	writeRequest(t, &b, req)
	return b.Bytes()
}

// FuzzAgentConn feeds HandleConn what a hostile or broken controller
// could. Whatever arrives, the handler returns once the peer hangs up,
// never panics, and installs nothing unless a well-formed install
// request was among the frames it could read.
func FuzzAgentConn(f *testing.F) {
	q1 := wire.AppendProgram(nil, compileQ1(f, 1))
	install := framed(f, wire.Request{Call: wire.CallInstall, ID: 7, Program: q1})
	f.Add(install)
	f.Add(append(install, framed(f, wire.Request{Call: wire.CallRemove, QID: 1})...))
	f.Add(install[:len(install)/2]) // truncated frame
	oversized := wire.AppendHeader(nil, wire.KindRequest, 0, nil)
	binary.LittleEndian.PutUint32(oversized[8:12], wire.MaxFrame+1)
	f.Add(oversized)
	f.Add(framed(f, wire.Request{Call: wire.CallInstall}))
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
		f.Add(framed(f, wire.Request{Call: wire.CallInstall, Program: prog}))
	}
	f.Add(append(framed(f, wire.Request{Call: wire.CallEpoch}), framed(f, wire.Request{Call: wire.CallDrain, DrainAck: 9})...))
	// An install in the former length-framed JSON: refused at the magic.
	var old bytes.Buffer
	if err := WriteFrame(&old, map[string]any{"type": "install", "rules": q1}); err != nil {
		f.Fatal(err)
	}
	f.Add(old.Bytes())

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

		// The frames the agent could have read, read again here: it stops
		// at the first one that is not a well-formed request.
		sawInstall := false
		fr := wire.NewFrameReader(bytes.NewReader(data))
		var req wire.Request
		for readRequest(fr, &req) == nil {
			sawInstall = sawInstall || req.Call == wire.CallInstall && len(req.Program) > 0
		}
		if n := agent.eng.InstalledCount(); n != 0 && !sawInstall {
			t.Fatalf("%d programs installed by a stream without an install request", n)
		}
	})
}
