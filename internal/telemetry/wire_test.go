package telemetry_test

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
)

// TestMixedCodecFleet is the interop contract: a JSON-only exporter and
// binary exporters share one analyzer listener, their snapshots merge
// into the same network-wide banks, and their alerts dedup across the
// codec boundary.
func TestMixedCodecFleet(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)

	dial := func(id string, codec telemetry.Codec) *telemetry.Exporter {
		exp, err := telemetry.Dial(ln.Addr().String(), telemetry.ExporterConfig{
			SwitchID: id, Codec: codec, Policy: telemetry.PolicyBlock,
		})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return exp
	}
	legacy := dial("legacy", telemetry.CodecJSON)
	modern1 := dial("modern1", telemetry.CodecBinary)
	modern2 := dial("modern2", telemetry.CodecAuto)
	defer legacy.Close()
	defer modern1.Close()
	defer modern2.Close()

	// Same (query, window, key) alert from both sides of the codec
	// boundary: one survivor.
	legacy.Export([]dataplane.Report{report(7, 50, 0xAABB)})
	if err := legacy.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "legacy report ingested", func() bool { return svc.Stats().Reports == 1 })
	modern1.Export([]dataplane.Report{report(7, 60, 0xAABB)})
	if err := modern1.Flush(); err != nil {
		t.Fatal(err)
	}
	// Snapshots of the same bank merge counter-wise across codecs.
	for _, exp := range []*telemetry.Exporter{legacy, modern1, modern2} {
		if err := exp.ExportSnapshot(3, []modules.BankSnapshot{cmsBank(7, 10, 0, 5, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all three snapshots merged", func() bool {
		st := svc.Stats()
		return st.Snapshots == 3 && st.Reports == 2
	})

	rows := svc.MergedRows(7, 0, 3)
	if len(rows) != 1 {
		t.Fatalf("merged rows: %d, want 1", len(rows))
	}
	if got := rows[0].Values[0]; got != 30 {
		t.Fatalf("merged counter: %d, want 30 (3 switches x 10)", got)
	}
	if got := len(rows[0].Switches); got != 3 {
		t.Fatalf("contributors merged: %d, want 3", got)
	}
	if got := len(svc.DrainReports()); got != 1 {
		t.Fatalf("deduped alerts: %d, want 1", got)
	}

	// The service saw each stream's negotiated codec and its bytes.
	for id, want := range map[string]string{"legacy": "json", "modern1": "binary", "modern2": "binary"} {
		wi, ok := svc.AgentWire(id)
		if !ok || wi.Codec != want {
			t.Fatalf("agent %s codec = %q (ok=%v), want %q", id, wi.Codec, ok, want)
		}
		if wi.Bytes == 0 {
			t.Fatalf("agent %s: no wire bytes accounted", id)
		}
	}
	st := svc.Stats()
	if st.BinaryAgents != 2 {
		t.Fatalf("BinaryAgents = %d, want 2", st.BinaryAgents)
	}

	// Exporter-side stats agree on the negotiated codec.
	if c := legacy.Stats().Codec; c != "json" {
		t.Fatalf("legacy exporter codec %q", c)
	}
	if c := modern1.Stats().Codec; c != "binary" {
		t.Fatalf("modern1 exporter codec %q", c)
	}
	if c := modern2.Stats().Codec; c != "binary" {
		t.Fatalf("modern2 exporter codec %q", c)
	}
}

// TestAutoFallsBackToJSON: an exporter proposing the binary codec
// against a peer that reads JSON frames but never acks (an old
// analyzer) must fall back to JSON and keep exporting.
func TestAutoFallsBackToJSON(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	var sawReports atomic.Uint64
	go func() { // minimal old-analyzer: JSON frames in, no acks out
		for {
			var f telemetry.Frame
			if err := rpc.ReadFrame(server, &f); err != nil {
				return
			}
			if f.Type == telemetry.FrameReports {
				sawReports.Add(uint64(len(f.Reports)))
			}
		}
	}()
	exp, err := telemetry.NewExporter(client, telemetry.ExporterConfig{
		SwitchID: "sw1", Policy: telemetry.PolicyBlock,
		NegotiateTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if c := exp.Stats().Codec; c != "json" {
		t.Fatalf("codec after fallback = %q, want json", c)
	}
	exp.Export([]dataplane.Report{report(1, 10, 42)})
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "legacy peer received the JSON reports", func() bool {
		return sawReports.Load() == 1
	})
}

// TestCodecBinaryRequiresAck: with CodecBinary, a non-acking peer fails
// construction instead of silently degrading.
func TestCodecBinaryRequiresAck(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		var f telemetry.Frame
		_ = rpc.ReadFrame(server, &f) // consume hello, never ack
	}()
	_, err := telemetry.NewExporter(client, telemetry.ExporterConfig{
		SwitchID: "sw1", Codec: telemetry.CodecBinary,
		NegotiateTimeout: 50 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "binary") {
		t.Fatalf("want negotiation failure naming the binary codec, got %v", err)
	}
}

// TestBinaryReconnectReplaysKeyframe: after an analyzer outage, the
// re-negotiated binary stream must ground the fresh decoder with a
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
		SwitchID: "s1", Codec: telemetry.CodecBinary, Policy: telemetry.PolicyDropOldest,
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
	wi, ok := svc2.AgentWire("s1")
	if !ok || wi.Codec != "binary" {
		t.Fatalf("reconnected stream codec = %q (ok=%v), want binary", wi.Codec, ok)
	}
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

// TestAlertDedupMemoryBounded: the dedup map compacts once windows age
// past the retention horizon, so resident keys stay bounded while
// duplicate suppression for recent windows still works.
func TestAlertDedupMemoryBounded(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{
		Window: 100 * time.Nanosecond, KeepAlertWindows: 4,
	})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{Policy: telemetry.PolicyBlock}, nil)
	defer exp.Close()

	// 40k unique (window, key) alerts marching forward in time: without
	// compaction the dedup map would hold all of them.
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
	if keys := svc.Stats().DedupKeys; keys >= total/2 {
		t.Fatalf("dedup keys not compacted: %d resident of %d total", keys, total)
	}
	// Recent-window dedup still works after compaction.
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
	up := func(id string) func() bool {
		return func() bool { _, connected, _ := svc.AgentLiveness(id); return connected }
	}
	early := connect(t, svc, "early", telemetry.ExporterConfig{Codec: telemetry.CodecBinary}, nil)
	waitFor(t, "early's stream up", up("early"))
	reg := obs.NewRegistry()
	svc.RegisterObs(reg)
	late := connect(t, svc, "late", telemetry.ExporterConfig{Codec: telemetry.CodecBinary}, nil)
	defer late.Close()
	waitFor(t, "late's stream up", up("late"))

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
	waitFor(t, "early's stream down", func() bool { return !up("early")() })
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
