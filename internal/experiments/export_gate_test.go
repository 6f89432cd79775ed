package experiments

import (
	"testing"
	"time"
)

// TestDeltaSnapshotsTieFull is the wire gate on the ExportOverhead
// workload, and the only judge of the delta chain the tree has (ROADMAP
// item 2): delta-encoded snapshots must cost no more than sending every
// snapshot in full, and deliver the same alerts. CI runs this as the
// wire-codec bench smoke.
func TestDeltaSnapshotsTieFull(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	r := ExportOverhead(3, 500*time.Millisecond)
	rows := map[string]ExportRow{}
	for _, row := range r.Rows {
		rows[row.Mode] = row
	}
	full, delta := rows["binary-push"], rows["binary+delta"]
	if full.Bytes == 0 || full.Reports == 0 {
		t.Fatalf("binary-push row missing or empty: %+v", r.Rows)
	}
	if delta.Reports != full.Reports {
		t.Errorf("binary+delta delivered %d alerts, binary-push %d", delta.Reports, full.Reports)
	}
	// Registers reset every epoch, so this workload has little temporal
	// redundancy for deltas to mine; the encoder's per-bank fallback to
	// sparse-full caps the delta mode's cost at the per-frame base-epoch
	// varint. Allow that sliver, nothing more.
	if float64(delta.Bytes) > float64(full.Bytes)*1.02 {
		t.Errorf("delta encoding spent more than full snapshots: %d vs %d bytes",
			delta.Bytes, full.Bytes)
	}
}

// TestPushDedupsReplicatedAlerts: ExportOverhead reports its three
// disciplines, and the pushed ones deliver each alert once where
// polling delivers it once per replicated switch.
func TestPushDedupsReplicatedAlerts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	r := ExportOverhead(3, 500*time.Millisecond)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	poll, push := r.Rows[0], r.Rows[1]
	// Replicated switches all raise the same alert; the analyzer service
	// deduplicates, so push delivers exactly one alert per poll-mode triple.
	if push.Reports == 0 || push.Reports*r.Switches != poll.Reports {
		t.Errorf("push delivered %d alerts, poll %d over %d replicated switches",
			push.Reports, poll.Reports, r.Switches)
	}
	// The snapshot encoding changes the bytes, never the answers.
	delta := r.Rows[2]
	if delta.Reports != push.Reports {
		t.Errorf("%s delivered %d alerts, %s %d", delta.Mode, delta.Reports, push.Mode, push.Reports)
	}
	// Wire msgs is counted at the switch end as reads + writes over two
	// (countConn), so pin it to the protocol. A window costs a polled
	// switch two request/response pairs (drain, next epoch); a pushing one
	// the epoch pair, a snapshot and the window's alert, plus one bye.
	sw, win := uint64(r.Switches), uint64(r.Windows)
	if want := 2 * 2 * sw * win; poll.Frames != want {
		t.Errorf("poll frames = %d, want %d", poll.Frames, want)
	}
	if want := sw * (2*win + win + uint64(push.Reports) + 1); push.Frames != want || delta.Frames != want {
		t.Errorf("pushed frames = %d (%s), %d (%s), want %d",
			push.Frames, push.Mode, delta.Frames, delta.Mode, want)
	}
}
