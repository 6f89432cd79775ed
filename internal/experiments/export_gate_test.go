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
