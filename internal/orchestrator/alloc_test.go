package orchestrator

import (
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/query"
)

// TestCompileAllocs: a compile through the orchestrator's compiler,
// which keeps its scratch storage from one plan to the next, allocates
// the program's arena and little else, for every catalog query at every
// rung of the default ladder.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const budget = 25
	o := churnLike(t)
	for _, q := range query.All() {
		for _, w := range []uint32{256, 512, 1024, 2048, 4096} {
			opts := compiler.AllOpts()
			opts.Width = w
			if _, err := o.compiler.Compile(q, opts); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { o.compiler.Compile(q, opts) }); n > budget {
				t.Errorf("%s at %d: a compile allocates %v times, want at most %d", q.Name, w, n, budget)
			}
		}
	}
}

// BenchmarkPlanUnchanged is a replan of churnLike's six intents, none
// changed since the last plan: no compile, no slice, trackers reset.
func BenchmarkPlanUnchanged(b *testing.B) {
	o := churnLike(b)
	if _, _, err := o.Plan(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := o.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}
