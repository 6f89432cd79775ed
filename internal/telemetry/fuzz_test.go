package telemetry_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/wire"
)

// wireFramed is payload as one internal/wire frame.
func wireFramed(t testing.TB, kind wire.Kind, flags wire.Flags, payload []byte) []byte {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, kind, flags, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonFramed is v as one length-framed JSON message: a handshake frame.
func jsonFramed(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := rpc.WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonReportsFrame is a data frame of the JSON codec the stream once
// had: it must end a stream, never be parsed.
func jsonReportsFrame(t testing.TB, rs []dataplane.Report) []byte {
	return jsonFramed(t, map[string]any{"type": "reports", "switch_id": "s1", "reports": rs})
}

// FuzzServiceStream feeds HandleConn what a hostile or broken agent
// could: the input's first byte picks whether the rest is the whole
// stream (even) or what follows a valid wire-1 hello (odd). Whatever
// arrives, the handler returns once the peer hangs up, never panics,
// leaves no stream counted open, and its counters agree with each other
// and with the error it returned.
func FuzzServiceStream(f *testing.F) {
	alert := []dataplane.Report{report(1, 10, 42)}
	var enc wire.SnapshotEncoder
	keyframe, _ := enc.Encode(nil, 1, []modules.BankSnapshot{cmsBank(1, 1, 0, 3)})
	delta, deltaFlags := enc.Encode(nil, 2, []modules.BankSnapshot{cmsBank(1, 1, 0, 4)})
	afterHello := func(data []byte) []byte { return append([]byte{1}, data...) }
	f.Add(afterHello(wireFramed(f, wire.KindReports, 0, wire.AppendReports(nil, "s1", alert))))
	f.Add(afterHello(wireFramed(f, wire.KindSnapshot, 0, keyframe)))
	f.Add(afterHello(wireFramed(f, wire.KindSnapshot, deltaFlags, delta))) // its base never crossed this stream
	f.Add(afterHello(jsonReportsFrame(f, alert)))
	f.Add(append([]byte{0}, jsonFramed(f, &telemetry.Frame{Type: telemetry.FrameHello, SwitchID: "s1"})...))
	f.Add(afterHello(wireFramed(f, wire.KindReports, 0, nil)[:wire.HeaderSize/2])) // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		svc := telemetry.NewService(telemetry.ServiceConfig{})
		defer svc.Close()
		server, client := net.Pipe()
		done := make(chan error, 1) // one send, from the one handler
		go func() { done <- svc.HandleConn(server) }()
		go io.Copy(io.Discard, client) // the ack, if the stream earns one; ends with client
		if data[0]%2 == 1 {
			hello := &telemetry.Frame{Type: telemetry.FrameHello, SwitchID: "s1", Wire: wire.Version1}
			if err := rpc.WriteFrame(client, hello); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = client.Write(data[1:]) // the service may hang up first
		client.Close()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("HandleConn did not return after the peer hung up")
		}
		st := svc.Stats()
		if st.LiveAgents != 0 || st.Agents > 1 {
			t.Fatalf("after the stream: %d agents, %d live", st.Agents, st.LiveAgents)
		}
		want := uint64(0)
		if err != nil {
			want = 1
		}
		if st.StreamErrors != want {
			t.Fatalf("HandleConn returned %v, StreamErrors = %d", err, st.StreamErrors)
		}
		if st.DuplicateAlerts > st.Reports || st.PendingDropped > st.Reports || st.DuplicateSnapshots > st.Snapshots {
			t.Fatalf("counters disagree: %+v", st)
		}
		if st.Agents == 0 && st.Reports+st.Snapshots+st.WireBytes != 0 {
			t.Fatalf("ingest without an agent: %+v", st)
		}
	})
}
