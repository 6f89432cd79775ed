package telemetry_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/wire"
)

func cmsBank(qid int, values ...uint32) modules.BankSnapshot {
	return modules.BankSnapshot{
		QueryID: qid, Kind: modules.BankCMSRow, Algo: sketch.CRC32IEEE, Range: 1 << 16,
		Width: uint32(len(values)), Values: values,
	}
}

// TestExporterReconnectsAndReplaysSnapshot is the agent-survives-analyzer-
// outage contract: an agent that loses its analyzer keeps monitoring,
// accounts every undeliverable report in its ExportStats, and when the
// analyzer comes back it resumes the push — opening with its latest
// epoch snapshot — without a restart.
func TestExporterReconnectsAndReplaysSnapshot(t *testing.T) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	exp.Export([]dataplane.Report{report(1, 10, 42)})
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 1, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first snapshot ingested", func() bool { return svc1.Stats().Snapshots == 1 })

	// Analyzer dies. The switch keeps producing: reports must not block
	// the packet path, and every loss must be accounted.
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "exporter notices dead stream", func() bool {
		exp.Export([]dataplane.Report{report(1, 20, 43)})
		exp.Flush()
		return exp.Stats().Dropped > 0
	})
	// The epoch roll during the outage can't be delivered, but it must
	// refresh the replay cache.
	if err := exp.ExportSnapshot(4, []modules.BankSnapshot{cmsBank(1, 5, 6, 7, 8)}); err == nil {
		t.Fatal("snapshot during outage reported success")
	}
	st := exp.Stats()
	if st.Enqueued != st.Exported+st.Dropped {
		t.Fatalf("loss not accounted: enqueued=%d exported=%d dropped=%d",
			st.Enqueued, st.Exported, st.Dropped)
	}

	// Analyzer returns at the same address.
	svc2 := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc2.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go svc2.Serve(ln2)

	// The exporter reconnects on its own and opens with the latest
	// cached snapshot (epoch 4, not the already-delivered epoch 3).
	waitFor(t, "snapshot replayed to new analyzer", func() bool { return svc2.Stats().Snapshots == 1 })
	if got := exp.Stats().Reconnects; got != 1 {
		t.Errorf("Reconnects = %d, want 1", got)
	}
	rows := svc2.MergedRows(1, 0, 4)
	if len(rows) != 1 || rows[0].Values[0] != 5 {
		t.Fatalf("replayed rows = %+v, want epoch-4 bank", rows)
	}

	// And the push resumes: fresh reports land at the new analyzer.
	dropped := exp.Stats().Dropped
	exp.Export([]dataplane.Report{report(1, 30, 44)})
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-reconnect report ingested", func() bool { return svc2.Stats().Reports == 1 })
	if d := exp.Stats().Dropped; d != dropped {
		t.Errorf("post-reconnect export dropped %d more reports", d-dropped)
	}
}

// TestPartialEpochNamesMissingSwitch: a merged (query, epoch) whose
// expected contributor set is not fully covered is flagged Partial with
// the missing switches named — it never poses as the network-wide view.
func TestPartialEpochNamesMissingSwitch(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	svc.SetExpected(1, []string{"a", "b"})

	expA := connect(t, svc, "a", telemetry.ExporterConfig{}, nil)
	defer expA.Close()
	if err := expA.ExportSnapshot(0, []modules.BankSnapshot{cmsBank(1, 9, 9)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a's snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })

	partial, missing, merged := svc.EpochStatus(1, 0)
	if !partial || merged != 1 {
		t.Fatalf("EpochStatus = partial=%v merged=%d, want partial with 1 contribution", partial, merged)
	}
	if len(missing) != 1 || missing[0] != "b" {
		t.Fatalf("missing = %v, want [b]", missing)
	}
	rows := svc.MergedRows(1, 0, 0)
	if len(rows) != 1 || !rows[0].Partial {
		t.Fatalf("merged rows not flagged partial: %+v", rows)
	}
	if len(rows[0].Missing) != 1 || rows[0].Missing[0] != "b" {
		t.Fatalf("rows[0].Missing = %v, want [b]", rows[0].Missing)
	}

	// Once b contributes, the epoch is complete.
	expB := connect(t, svc, "b", telemetry.ExporterConfig{}, nil)
	defer expB.Close()
	if err := expB.ExportSnapshot(0, []modules.BankSnapshot{cmsBank(1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b's snapshot merged", func() bool { return svc.Stats().Snapshots == 2 })
	if partial, missing, _ := svc.EpochStatus(1, 0); partial || len(missing) != 0 {
		t.Fatalf("complete epoch still partial (missing=%v)", missing)
	}
	if rows := svc.MergedRows(1, 0, 0); rows[0].Partial {
		t.Fatal("complete epoch rows still flagged partial")
	}
}

// TestEpochGapAndLivenessTracking: the service counts skipped snapshot
// epochs per agent and tracks stream liveness across a reconnect.
func TestEpochGapAndLivenessTracking(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()

	exp := connect(t, svc, "a", telemetry.ExporterConfig{}, nil)
	if err := exp.ExportSnapshot(1, []modules.BankSnapshot{cmsBank(1, 1)}); err != nil {
		t.Fatal(err)
	}
	// Epochs 2..4 never arrive (the exporter was down); 5 shows up.
	if err := exp.ExportSnapshot(5, []modules.BankSnapshot{cmsBank(1, 2)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshots merged", func() bool { return svc.Stats().Snapshots == 2 })
	if gaps := svc.Stats().EpochGaps; gaps != 3 {
		t.Errorf("EpochGaps = %d, want 3 (epochs 2,3,4)", gaps)
	}

	if _, connected, ok := svc.AgentLiveness("a"); !ok || !connected {
		t.Fatalf("liveness(a) = connected=%v ok=%v, want connected", connected, ok)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stream down", func() bool {
		_, connected, ok := svc.AgentLiveness("a")
		return ok && !connected
	})

	// A second stream under the same switch ID is a reconnect.
	exp2 := connect(t, svc, "a", telemetry.ExporterConfig{}, nil)
	defer exp2.Close()
	waitFor(t, "stream back up", func() bool {
		_, connected, _ := svc.AgentLiveness("a")
		return connected
	})
	if rc := svc.Stats().Reconnects; rc != 1 {
		t.Errorf("service Reconnects = %d, want 1", rc)
	}
	if live := svc.Stats().LiveAgents; live != 1 {
		t.Errorf("LiveAgents = %d, want 1", live)
	}
}

// TestDetachOnCloseAndFailedConstruction (satellite): an exporter
// detaches its agent hooks on Close, and DialAttached never leaves a
// dead exporter wired into the agent's epoch path.
func TestDetachOnCloseAndFailedConstruction(t *testing.T) {
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	sw := dataplane.NewSwitch("s1", 4, modules.StageCapacity())
	agent := rpc.NewAgent(sw, eng)

	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	exp := connect(t, svc, "s1", telemetry.ExporterConfig{}, nil)
	exp.AttachAgent(agent, eng)
	if agent.OnEpoch == nil {
		t.Fatal("AttachAgent did not set the epoch hook")
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if agent.OnEpoch != nil {
		t.Error("Close left the epoch hook attached")
	}

	// A failed dial must leave the agent clean too.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	agent.SetTelemetryHooks(func() {})
	if _, err := telemetry.DialAttached(deadAddr, telemetry.ExporterConfig{SwitchID: "s1"}, agent, eng); err == nil {
		t.Fatal("DialAttached to a dead address succeeded")
	}
	if agent.OnEpoch != nil {
		t.Error("failed DialAttached left stale hooks attached")
	}
}

// TestReplayedSnapshotMergesOnce: when a stream resets and the analyzer
// stays up, the exporter's reconnect replays its latest snapshot to an
// analyzer that already merged it. The merge is idempotent per (query,
// epoch, switch): the replay is counted and announced, not added — every
// estimate of that epoch would otherwise double for that switch.
func TestReplayedSnapshotMergesOnce(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	events, cancel := svc.Subscribe(16)
	defer cancel()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.NewExporter(conn, telemetry.ExporterConfig{
		SwitchID: "s1", Policy: telemetry.PolicyDropOldest,
		Redial:       func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		ReconnectMin: time.Millisecond, ReconnectMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 5, 0, 7)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })

	// The stream dies under the exporter; the analyzer is still there.
	conn.Close()
	waitFor(t, "exporter reconnects and replays", func() bool {
		exp.Export([]dataplane.Report{report(1, 20, 43)}) // a write is how it notices
		return svc.Stats().Reconnects > 0 && svc.Stats().Snapshots == 2
	})

	rows := svc.MergedRows(1, 0, 3)
	if len(rows) != 1 {
		t.Fatalf("epoch 3: %d rows", len(rows))
	}
	if v := rows[0].Values; len(v) != 3 || v[0] != 5 || v[1] != 0 || v[2] != 7 {
		t.Errorf("epoch 3 after the replay: %v, want [5 0 7]", v)
	}
	if sw := rows[0].Switches; len(sw) != 1 || sw[0] != "s1" {
		t.Errorf("epoch 3 provenance after the replay: %v, want [s1]", sw)
	}
	if st := svc.Stats(); st.DuplicateSnapshots != 1 {
		t.Errorf("DuplicateSnapshots = %d, want 1", st.DuplicateSnapshots)
	}
	for merged := 0; merged < 2; {
		select {
		case ev := <-events:
			if ev.Kind == telemetry.EventSnapshotMerged && ev.Epoch == 3 {
				merged++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d EventSnapshotMerged for epoch 3, want one per snapshot frame", merged)
		}
	}

	// The next epoch is news, and a bank the replay did not cover still
	// merges when the same epoch is offered again with it.
	if err := exp.ExportSnapshot(4, []modules.BankSnapshot{cmsBank(1, 1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportSnapshot(4, []modules.BankSnapshot{cmsBank(1, 1, 1, 1), cmsBank(2, 9)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch 4 offered twice", func() bool { return svc.Stats().Snapshots == 4 })
	if rows := svc.MergedRows(1, 0, 4); len(rows) != 1 || rows[0].Values[0] != 1 {
		t.Errorf("query 1 at epoch 4: %+v, want its one contribution", rows)
	}
	if rows := svc.MergedRows(2, 0, 4); len(rows) != 1 || rows[0].Values[0] != 9 {
		t.Errorf("query 2 at epoch 4: %+v, want the bank the second frame added", rows)
	}
	if st := svc.Stats(); st.DuplicateSnapshots != 2 {
		t.Errorf("DuplicateSnapshots = %d, want 2", st.DuplicateSnapshots)
	}
}

// TestOversizedSnapshotFailsAtTheExporter: a bank set whose declared
// widths pass what one frame may carry is refused where it is exported,
// with the typed error — not sent for the analyzer to drop the stream
// over — and the stream carries on.
func TestOversizedSnapshotFailsAtTheExporter(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	tooWide := make([]modules.BankSnapshot, 5)
	for i := range tooWide {
		tooWide[i] = modules.BankSnapshot{QueryID: 1, Row: i, Kind: modules.BankCMSRow, Width: wire.MaxFrame / 4}
	}
	exp := connect(t, svc, "sw", telemetry.ExporterConfig{}, nil)
	defer exp.Close()
	if err := exp.ExportSnapshot(1, tooWide); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("exporting %d x %d registers: %v, want ErrTooLarge", len(tooWide), wire.MaxFrame/4, err)
	}
	if err := exp.ExportSnapshot(2, []modules.BankSnapshot{cmsBank(1, 4, 2)}); err != nil {
		t.Fatalf("the stream did not survive the refusal: %v", err)
	}
	waitFor(t, "the next snapshot merges", func() bool { return svc.Stats().Snapshots == 1 })
}
