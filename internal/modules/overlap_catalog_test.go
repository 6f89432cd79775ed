package modules_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// TestPartitionedPairsKeepTheirReports: two partitioned queries on one
// line of switches each send what they send alone, or the second is
// refused at the door. Every pair of catalog queries, compiled at
// AllOpts and width 4096, is cut at the first stage budget at which both
// slice into the same number (at least two) of parts, and the k-th part
// of each goes on the k-th switch. One result snapshot rides a packet,
// so where both queries' newton_init entries match a packet, a switch
// must refuse the second query's partition (ErrSharedSnapshot); a pair
// every switch accepts must send each query's whole-and-alone reports.
// Before the refusal, 9 of the 36 pairs lost reports this way.
func TestPartitionedPairsKeepTheirReports(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine: nothing to race, and forty times slower")
	}
	tr := sweepTrace()
	catalog := query.All()
	progs := make([]*modules.Program, len(catalog))
	alone := make([]map[string]int, len(catalog))
	for i, q := range catalog {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, 4096
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		progs[i], alone[i] = p, runLine(t, tr, []*modules.Program{p}).reports[i+1]
	}
	var pairs, refused, ran int
	for i := range progs {
		for j := i + 1; j < len(progs); j++ {
			a, b := sliceAlike(progs[i], progs[j])
			if a == nil {
				continue
			}
			pairs++
			if err := installPair(a, b); err != nil {
				if !errors.Is(err, modules.ErrSharedSnapshot) {
					t.Fatalf("%s + %s: %v, want ErrSharedSnapshot or an install", catalog[i].Name, catalog[j].Name, err)
				}
				refused++
				continue
			}
			ran++
			got := runLine(t, tr, a, b)
			for _, qid := range []int{i + 1, j + 1} {
				if !reflect.DeepEqual(got.reports[qid], alone[qid-1]) {
					t.Errorf("%s + %s in %d parts: %s sends %d distinct reports, %d alone",
						catalog[i].Name, catalog[j].Name, len(a), catalog[qid-1].Name, len(got.reports[qid]), len(alone[qid-1]))
				}
			}
		}
	}
	t.Logf("%d pairs sliced alike: %d refused, %d ran side by side", pairs, refused, ran)
	if refused == 0 || ran == 0 {
		t.Fatalf("vacuous sweep: %d pairs refused, %d ran", refused, ran)
	}
}

// sliceAlike cuts a and b at the first stage budget at which both slice
// into the same number of parts, two or more, or returns nil.
func sliceAlike(a, b *modules.Program) ([]*modules.Program, []*modules.Program) {
	for budget := 1; budget < max(a.NumStages(), b.NumStages()); budget++ {
		pa, errA := modules.SliceProgram(a, budget)
		pb, errB := modules.SliceProgram(b, budget)
		if errA == nil && errB == nil && len(pa) == len(pb) && len(pa) >= 2 {
			return pa, pb
		}
	}
	return nil, nil
}

// installPair installs the k-th parts of a and b on the k-th of a line
// of bare engines, and returns the first refusal.
func installPair(a, b []*modules.Program) error {
	for k := range a {
		l, err := modules.NewLayout(modules.LayoutCompact, 24, 1<<16)
		if err != nil {
			return err
		}
		eng := modules.NewEngine(l)
		for _, p := range []*modules.Program{a[k].Clone(), b[k].Clone()} {
			if err := eng.Install(p); err != nil {
				return err
			}
		}
	}
	return nil
}
