package scheduler

import (
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// TestResetIsNewTracker: a reset tracker holds what a new one holds, and
// resetting a used tracker allocates nothing, so a plan that starts over
// on the trackers it kept pays nothing for them.
func TestResetIsNewTracker(t *testing.T) {
	b := Budget{Stages: 12, ArraySize: 1 << 14}
	tr := NewTracker(b)
	for _, q := range query.All() {
		p := compileAt(t, q, 1024)
		if ok, _ := tr.Fits(p); ok {
			tr.Commit(p)
		}
	}
	parts, err := modules.SliceProgram(compileAt(t, query.Q4(40), 1024), 7)
	if err != nil {
		t.Fatal(err)
	}
	tr.Commit(parts[0])
	if reflect.DeepEqual(tr, NewTracker(b)) {
		t.Fatal("nothing was committed")
	}
	tr.Reset()
	if !reflect.DeepEqual(tr, NewTracker(b)) {
		t.Fatal("a reset tracker is not a new one")
	}
	if raceEnabled {
		return
	}
	p := compileAt(t, query.Q6(40), 1024)
	if n := testing.AllocsPerRun(20, func() {
		tr.Commit(p)
		tr.Reset()
	}); n != 0 {
		t.Fatalf("a commit and a reset allocate %v times, want 0", n)
	}
}
