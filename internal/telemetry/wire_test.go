package telemetry_test

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/wire"
)

// TestCodecBinaryRequiresAck: a non-acking peer fails construction —
// there is no other codec to degrade to.
func TestCodecBinaryRequiresAck(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		var f telemetry.Frame
		_ = rpc.ReadFrame(server, &f) // consume hello, never ack
	}()
	_, err := telemetry.NewExporter(client, telemetry.ExporterConfig{
		SwitchID: "sw1", NegotiateTimeout: 50 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "binary") {
		t.Fatalf("want negotiation failure naming the binary codec, got %v", err)
	}
}

// TestLateAckNeverSplitsTheCodec: the exporter gives up on a hello by a
// timeout only it can see, while the service, which did ack, reads on. A
// late ack must therefore cost the conn, never leave the two ends framing
// differently. At construction that is an error; in the reconnect loop
// the late conn is dropped, the next one taken, and everything exported
// from then on arrives.
func TestLateAckNeverSplitsTheCodec(t *testing.T) {
	const timeout = 50 * time.Millisecond
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var late atomic.Int32              // how many of the next accepted conns ack late
	accepted := make(chan net.Conn, 8) // every conn the test may make, so accepting never blocks
	ends := make(chan error, cap(accepted))
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
			if late.Add(-1) >= 0 {
				// The hello-ack is all a service ever writes.
				conn = slowConn{Conn: conn, delay: 4 * timeout}
			}
			go func() { ends <- svc.HandleConn(conn) }()
		}
	}()
	cfg := telemetry.ExporterConfig{
		SwitchID: "s1", Policy: telemetry.PolicyBlock, NegotiateTimeout: timeout,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond,
	}

	late.Store(1)
	if exp, err := telemetry.Dial(ln.Addr().String(), cfg); err == nil {
		exp.Close()
		t.Fatal("an exporter came up on a hello acked after its timeout")
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("construction failed with %v, want the ack's read deadline", err)
	}
	<-accepted
	select {
	case <-ends: // whatever the service made of the abandoned conn, it let go of it
	case <-time.After(5 * time.Second):
		t.Fatal("the service kept the abandoned stream")
	}

	exp, err := telemetry.Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	// The stream is cut; the first redial's ack is late, the second's prompt.
	late.Store(1)
	(<-accepted).Close()
	waitFor(t, "the exporter reconnects past the late ack", func() bool {
		exp.Export([]dataplane.Report{report(1, 10, 1)}) // a write is how it notices
		exp.Flush()
		return exp.Stats().Reconnects == 1
	})
	dropped := exp.Stats().Dropped
	const n = 100
	for i := 0; i < n; i++ {
		exp.Export([]dataplane.Report{report(2, 10, uint64(i))})
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	ingested := 0
	waitFor(t, "every report exported after the reconnect is ingested", func() bool {
		for _, r := range svc.DrainReports() {
			if r.QueryID == 2 {
				ingested++
			}
		}
		return ingested == n
	})
	if d := exp.Stats().Dropped; d != dropped {
		t.Errorf("%d reports dropped after the reconnect", d-dropped)
	}
	if svc.Stats().LiveAgents != 1 {
		t.Error("the service does not see s1 connected")
	}
}

// TestBadStreamsEndCounted: a stream the service cannot read ends with
// the typed error, is counted, and leaves nothing ingested. A hello below
// wire version 1 is refused before any per-agent state exists and without
// a write: nothing reads this pipe, so an ack would hang the handler.
func TestBadStreamsEndCounted(t *testing.T) {
	alert := []dataplane.Report{report(1, 10, 42)}
	badCRC := wireFramed(t, wire.KindReports, 0, wire.AppendReports(nil, "s1", alert))
	badCRC[len(badCRC)-1] ^= 1
	for _, tc := range []struct {
		name   string
		wire   int
		data   []byte
		want   error
		agents int
	}{
		{"hello without a wire version", 0, nil, telemetry.ErrWireRequired, 0},
		{"JSON data frame", wire.Version1, jsonReportsFrame(t, alert), wire.ErrBadMagic, 1},
		{"corrupted CRC", wire.Version1, badCRC, wire.ErrCRC, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := telemetry.NewService(telemetry.ServiceConfig{})
			defer svc.Close()
			server, client := net.Pipe()
			defer client.Close()
			done := make(chan error, 1) // one send, from the one handler
			go func() { done <- svc.HandleConn(server) }()
			hello := &telemetry.Frame{Type: telemetry.FrameHello, SwitchID: "s1", Wire: tc.wire}
			if err := rpc.WriteFrame(client, hello); err != nil {
				t.Fatal(err)
			}
			if tc.wire >= wire.Version1 {
				var ack telemetry.Frame
				if err := rpc.ReadFrame(client, &ack); err != nil {
					t.Fatal(err)
				}
				_, _ = client.Write(tc.data) // the service may hang up mid-frame
			}
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("stream ended with %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the stream did not end")
			}
			st := svc.Stats()
			if st.StreamErrors != 1 || st.Agents != tc.agents || st.LiveAgents != 0 || st.Reports != 0 {
				t.Errorf("stats = %+v, want 1 stream error, %d agents, none live, nothing ingested", st, tc.agents)
			}
		})
	}
}

// TestBinaryReconnectReplaysKeyframe: after an analyzer outage, the
// new stream must ground the fresh decoder with a
// keyframe replay — no chain breaks — and the delta chain must resume
// on the new stream.
func TestBinaryReconnectReplaysKeyframe(t *testing.T) {
	svc1 := telemetry.NewService(telemetry.ServiceConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc1.Serve(ln)
	addr := ln.Addr().String()

	exp, err := telemetry.Dial(addr, telemetry.ExporterConfig{
		SwitchID: "s1", Policy: telemetry.PolicyDropOldest,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
		KeyframeEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	// Build a delta chain on the first stream.
	for epoch := uint32(1); epoch <= 3; epoch++ {
		if err := exp.ExportSnapshot(epoch, []modules.BankSnapshot{cmsBank(1, epoch, 2, 3, 4)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "3 snapshots merged", func() bool { return svc1.Stats().Snapshots == 3 })
	wi, _ := svc1.AgentWire("s1")
	if wi.KeyframeFrames != 1 || wi.DeltaFrames != 2 {
		t.Fatalf("first stream frames = %d keyframe / %d delta, want 1/2", wi.KeyframeFrames, wi.DeltaFrames)
	}

	// Analyzer dies and comes back at the same address.
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "exporter notices dead stream", func() bool {
		exp.Export([]dataplane.Report{report(1, 20, 43)})
		exp.Flush()
		return exp.Stats().Dropped > 0
	})
	svc2 := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go svc2.Serve(ln2)

	// The replay must arrive as a keyframe: svc2's decoder has no state,
	// so anything else would be a chain break.
	waitFor(t, "snapshot replayed to new analyzer", func() bool { return svc2.Stats().Snapshots == 1 })
	wi, _ = svc2.AgentWire("s1")
	if wi.ChainBreaks != 0 {
		t.Fatalf("ChainBreaks = %d after reconnect, want 0", wi.ChainBreaks)
	}
	if wi.KeyframeFrames != 1 {
		t.Fatalf("replay KeyframeFrames = %d, want 1", wi.KeyframeFrames)
	}
	rows := svc2.MergedRows(1, 0, 3)
	if len(rows) != 1 || rows[0].Values[0] != 3 {
		t.Fatalf("replayed rows = %+v, want epoch-3 bank with Values[0]=3", rows)
	}

	// The delta chain resumes against the replayed base.
	if err := exp.ExportSnapshot(4, []modules.BankSnapshot{cmsBank(1, 4, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-reconnect delta merged", func() bool { return svc2.Stats().Snapshots == 2 })
	wi, _ = svc2.AgentWire("s1")
	if wi.DeltaFrames != 1 || wi.ChainBreaks != 0 {
		t.Fatalf("post-reconnect frames = %d delta / %d breaks, want 1/0", wi.DeltaFrames, wi.ChainBreaks)
	}
	rows = svc2.MergedRows(1, 0, 4)
	if len(rows) != 1 || rows[0].Values[0] != 4 {
		t.Fatalf("post-reconnect rows = %+v, want epoch-4 bank with Values[0]=4", rows)
	}
}

// TestAlertDedupMemoryBounded: the dedup holds at most keepAlertWindows
// windows' sets and recycles the least recently touched one for a new
// window, so resident keys stay bounded while duplicate suppression for
// recent windows still works.
func TestAlertDedupMemoryBounded(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: 100 * time.Nanosecond})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{Policy: telemetry.PolicyBlock}, nil)
	defer exp.Close()

	// 40k unique (window, key) alerts marching forward in time, one a
	// window: without recycling the dedup would hold all of them.
	const total = 40000
	batch := make([]dataplane.Report, 0, 100)
	for i := 0; i < total; i++ {
		batch = append(batch, report(1, uint64(i)*100, uint64(i)))
		if len(batch) == cap(batch) {
			exp.Export(batch)
			batch = batch[:0]
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all reports ingested", func() bool { return svc.Stats().Reports == total })
	if keys := svc.Stats().DedupKeys; keys > telemetry.KeepAlertWindows {
		t.Fatalf("dedup keys not recycled: %d resident of %d total, want at most %d", keys, total, telemetry.KeepAlertWindows)
	}
	// Recent-window dedup still works after recycling.
	exp.Export([]dataplane.Report{report(1, uint64(total-1)*100, uint64(total-1))})
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicate suppressed", func() bool { return svc.Stats().DuplicateAlerts == 1 })
}

// TestRemoveReleasesMergedBanks: SetExpected(qid, nil) — the Remove
// path — frees the query's merged banks and epoch bookkeeping.
func TestRemoveReleasesMergedBanks(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{}, nil)
	defer exp.Close()

	if err := exp.ExportSnapshot(1, []modules.BankSnapshot{cmsBank(9, 1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportSnapshot(1, []modules.BankSnapshot{cmsBank(8, 4, 5, 6)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshots merged", func() bool { return svc.Stats().Snapshots == 2 })
	if rows := svc.MergedRows(9, 0, 1); len(rows) != 1 {
		t.Fatalf("merged rows before remove: %d", len(rows))
	}
	svc.SetExpected(9, nil)
	if rows := svc.MergedRows(9, 0, 1); len(rows) != 0 {
		t.Fatalf("merged rows after remove: %d, want 0", len(rows))
	}
	// Other queries are untouched.
	if rows := svc.MergedRows(8, 0, 1); len(rows) != 1 {
		t.Fatalf("unrelated query's rows after remove: %d, want 1", len(rows))
	}
}

// TestAnalyzerObsCodecHeldBytes: the analyzer's one per-agent series —
// what each stream's snapshot decoder holds — appears when the agent
// first connects (before or after RegisterObs), follows the decoder, and
// leaves with ForgetAgent; a replayed snapshot shows in its counter.
func TestAnalyzerObsCodecHeldBytes(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	early := connect(t, svc, "early", telemetry.ExporterConfig{}, nil)
	waitFor(t, "early's stream up", func() bool { return svc.Stats().LiveAgents == 1 })
	reg := obs.NewRegistry()
	svc.RegisterObs(reg)
	late := connect(t, svc, "late", telemetry.ExporterConfig{}, nil)
	defer late.Close()
	waitFor(t, "late's stream up", func() bool { return svc.Stats().LiveAgents == 2 })

	held := func(id string) *obs.Series {
		snap := reg.Snapshot()
		return snap.Find("newton_analyzer_codec_held_bytes", obs.L("switch", id))
	}
	for _, id := range []string{"early", "late"} {
		if s := held(id); s == nil || s.Value != 0 {
			t.Fatalf("%s before any snapshot: %+v, want a series at 0", id, s)
		}
	}
	for i, exp := range []*telemetry.Exporter{early, late, late} { // late's second is a replay
		if err := exp.ExportSnapshot(1, []modules.BankSnapshot{cmsBank(1, 3, 0, 0, 9)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "snapshot ingested", func() bool { return svc.Stats().Snapshots == uint64(i+1) })
	}
	for _, id := range []string{"early", "late"} {
		wi, _ := svc.AgentWire(id)
		if s := held(id); s == nil || s.Value == 0 || s.Value != float64(wi.HeldBytes) {
			t.Fatalf("%s after a snapshot: %+v, want WireInfo.HeldBytes = %d", id, s, wi.HeldBytes)
		}
	}
	snap := reg.Snapshot()
	if s := snap.Find("newton_analyzer_duplicate_snapshots_total"); s == nil || s.Value != 1 {
		t.Errorf("duplicate snapshots series: %+v, want 1", s)
	}

	early.Close()
	frames, _ := early.Frames()
	if err := svc.AwaitFrames("early", frames, true); err != nil {
		t.Fatal(err)
	}
	if s := held("early"); s == nil || s.Value != 0 {
		t.Errorf("early after its stream closed: %+v, want 0 (the decoder went with the stream)", s)
	}
	if !svc.ForgetAgent("early") {
		t.Fatal("ForgetAgent refused a closed agent")
	}
	if s := held("early"); s != nil {
		t.Errorf("early after ForgetAgent: series still there: %+v", s)
	}
	if held("late") == nil {
		t.Error("late's series left with early's")
	}
}
