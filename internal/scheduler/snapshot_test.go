package scheduler

import (
	"errors"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// TestFitsRefusesSharedSnapshot: q3 and q4 match the same packets, so
// their partitions may not share a switch, while two partitions of one
// query may. The tracker refuses what Engine.Install refuses, in the
// same words, and a Fits it accepts allocates nothing.
func TestFitsRefusesSharedSnapshot(t *testing.T) {
	b := Budget{Stages: 12, ArraySize: 1 << 14}
	slice := func(q *query.Query, qid int) []*modules.Program {
		p := compileAt(t, q, 1024)
		p.QID = qid
		parts, err := modules.SliceProgram(p, 7)
		if err != nil || len(parts) < 2 {
			t.Fatalf("%s: %d parts, %v", q.Name, len(parts), err)
		}
		return parts
	}
	q3, q4 := slice(query.Q3(40), 1), slice(query.Q4(40), 2)

	tr := NewTracker(b)
	layout, err := modules.NewLayout(modules.LayoutCompact, b.Stages, b.ArraySize)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	tr.Commit(q3[0])
	if err := eng.Install(q3[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if ok, why := tr.Fits(q3[1]); !ok {
		t.Fatalf("a second partition of q3 refused: %s", why)
	}
	if err := eng.Install(q3[1].Clone()); err != nil {
		t.Fatalf("the engine refused a second partition of q3: %v", err)
	}
	ok, why := tr.Fits(q4[0])
	err = eng.Install(q4[0].Clone())
	if ok || !errors.Is(err, modules.ErrSharedSnapshot) || err.Error() != "modules: "+why {
		t.Fatalf("q4 beside q3: Fits = %v (%s), Install = %v; want both to refuse the shared snapshot alike", ok, why, err)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() { tr.Fits(q3[1]) }); n != 0 {
		t.Fatalf("an accepted Fits beside a partition allocates %v times, want 0", n)
	}
}
