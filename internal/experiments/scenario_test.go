package experiments

import (
	"strings"
	"testing"
)

// sameLog holds a scenario's second run at a seed to its first's
// per-round log, line by line: intent edits, faults, the monitor's
// transitions, and the snapshots and reports each switch's stream had
// accounted when its round ended. Without the barrier a round's counts
// depend on how far the analyzer's reads got.
func sameLog(t *testing.T, seed int64, first, second string) {
	t.Helper()
	if first == "" {
		t.Fatal("the run logged nothing")
	}
	a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			t.Fatalf("seed %d: the logs part at line %d:\n  first:  %s\n  second: %s", seed, i+1, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("seed %d: one log has %d lines, the other %d", seed, len(a), len(b))
	}
}
