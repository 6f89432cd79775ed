package experiments

import (
	"fmt"
	"testing"
	"time"
)

func TestPrintSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	fmt.Println(Fig11OperationDelay(20))
	fmt.Println(Fig12Overhead(1500, 300*time.Millisecond))
	fmt.Println(Fig13CQEOverhead(3))
	fmt.Println(Fig14Accuracy([]uint32{256, 1024}, 3))
}

func TestPrintExportOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	r := ExportOverhead(3, 500*time.Millisecond)
	fmt.Println(r)
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
	if delta := r.Rows[2]; delta.Reports != push.Reports {
		t.Errorf("%s delivered %d alerts, %s %d", delta.Mode, delta.Reports, push.Mode, push.Reports)
	}
}
