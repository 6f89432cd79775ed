package modules_test

import (
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// catalogAt compiles every catalog query at width 1024.
func catalogAt(t testing.TB) []*modules.Program {
	t.Helper()
	var out []*modules.Program
	for i, q := range query.All() {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, 1024
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestProgramArenaBudgets: a program is built in one arena wherever it
// is made, so its allocations do not grow with its size. A Clone is the
// arena's arrays and the program (at most 12); a SliceProgram is the
// arrays, the partitions, their pointer list and their names, however
// many partitions the cut makes (at most 15).
func TestProgramArenaBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const cloneBudget, sliceBudget = 12, 15
	for _, p := range catalogAt(t) {
		if n := testing.AllocsPerRun(20, func() { p.Clone() }); n > cloneBudget {
			t.Errorf("%s: Clone allocates %v times, want at most %d", p.Name, n, cloneBudget)
		}
		for per := 2; per <= 12; per++ {
			parts, err := modules.SliceProgram(p, per)
			if err != nil {
				continue
			}
			if n := testing.AllocsPerRun(20, func() { modules.SliceProgram(p, per) }); n > sliceBudget {
				t.Errorf("%s: SliceProgram at %d stages (%d partitions) allocates %v times, want at most %d",
					p.Name, per, len(parts), n, sliceBudget)
			}
		}
	}
}

// TestPartitionsShareNoOps: the partitions of one cut share one arena,
// so each must own its ops and configs outright: an install binds
// registers into the ops it is given.
func TestPartitionsShareNoOps(t *testing.T) {
	cuts := 0
	for _, p := range catalogAt(t) {
		parts, err := modules.SliceProgram(p, 3)
		if err != nil {
			continue
		}
		cuts++
		seen := map[any]string{}
		for _, part := range parts {
			for _, b := range part.Branches {
				for _, op := range b.Ops {
					for _, ptr := range []any{op, op.K, op.H, op.S, op.R} {
						if reflect.ValueOf(ptr).IsNil() {
							continue
						}
						if prev, dup := seen[ptr]; dup {
							t.Fatalf("%s: %s and %s share %T", p.Name, prev, part.Name, ptr)
						}
						seen[ptr] = part.Name
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no catalog query slices at 3 stages")
	}
}

// TestCloneKeepsMissingParts: a nil branch or op keeps its slot in a
// Clone, where Install's well-formedness check refuses it.
func TestCloneKeepsMissingParts(t *testing.T) {
	p := catalogAt(t)[0]
	p.Branches = append(p.Branches, nil, &modules.BranchProgram{Ops: []*modules.Op{nil, p.Branches[0].Ops[0]}})
	c := p.Clone()
	if !reflect.DeepEqual(c, p) {
		t.Fatal("the clone is not the program")
	}
	if c.Branches[1] != nil || c.Branches[2].Ops[0] != nil || c.Branches[2].Ops[1] == p.Branches[0].Ops[0] {
		t.Fatal("the clone lost a missing part or shares an op")
	}
}

func BenchmarkSliceProgram(b *testing.B) {
	p := catalogAt(b)[6] // q7, sliced as the churn workload slices it
	b.ReportAllocs()
	for b.Loop() {
		if _, err := modules.SliceProgram(p, 7); err != nil {
			b.Fatal(err)
		}
	}
}
