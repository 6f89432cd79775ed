package orchestrator

import (
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// TestOverlappingPartitionsNeverShareASwitch: one result snapshot rides
// a packet, so two partitioned queries whose newton_init entries match
// the same packets may not share a switch. Every pair of catalog queries
// goes in as two intents on the ingress edge of a line of 9-stage
// switches, at 1024 registers a row. Wherever the plan puts partitions
// of both on one switch, that switch's engine must install them side by
// side; the pairs that overlap are planned apart or refused, and at
// least one is refused for the shared snapshot.
func TestOverlappingPartitionsNeverShareASwitch(t *testing.T) {
	topo, _, _ := topology.Linear(4)
	budgets := map[string]scheduler.Budget{}
	for _, sw := range []string{"s1", "s2", "s3", "s4"} {
		budgets[sw] = scheduler.Budget{Stages: 9, ArraySize: 1 << 14, RulesPerModule: 256}
	}
	catalog := query.All()
	var bothParted, shared int
	for i := range catalog {
		for j := i + 1; j < len(catalog); j++ {
			o, err := New(Config{Topo: topo, Budgets: budgets}, nil)
			if err != nil {
				t.Fatal(err)
			}
			o.SetIntents([]Intent{
				{Query: catalog[i], Priority: 2, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}},
				{Query: catalog[j], Priority: 1, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}},
			})
			p, _, err := o.Plan()
			if err != nil {
				t.Fatal(err)
			}
			a, b := p.Queries[0], p.Queries[1]
			if strings.Contains(b.Reason, modules.ErrSharedSnapshot.Error()) {
				shared++
			}
			if !a.Admitted || !b.Admitted || a.Single || b.Single {
				continue
			}
			bothParted++
			for sw, ka := range a.Parts {
				for _, k := range ka {
					for _, l := range b.Parts[sw] {
						if err := installSideBySide(budgets[sw], a.programs[k], b.programs[l]); err != nil {
							t.Errorf("%s and %s both planned partitioned on %s (parts %d and %d): %v",
								catalog[i].Name, catalog[j].Name, sw, k, l, err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs both partitioned, %d second intents refused for the shared snapshot", bothParted, shared)
	if shared == 0 {
		t.Fatal("no pair was refused for the shared snapshot: the sweep is vacuous")
	}
}

// installSideBySide installs copies of a and b, under qids of their
// own, on an engine of budget b's stages.
func installSideBySide(budget scheduler.Budget, a, b *modules.Program) error {
	l, err := modules.NewLayout(modules.LayoutCompact, budget.Stages, budget.ArraySize)
	if err != nil {
		return err
	}
	eng := modules.NewEngine(l)
	for qid, p := range []*modules.Program{a, b} {
		c := p.Clone()
		c.QID = qid + 1
		if err := eng.Install(c); err != nil {
			return err
		}
	}
	return nil
}

// TestOverlappingCQEIntentsDeployApart drives the same refusal through
// a fleet: q3 and q4 both take partitions on a line of 9-stage switches
// and match the same packets, so Converge deploys the first partitioned
// and refuses the second, and every switch holds partitions of one
// query only.
func TestOverlappingCQEIntentsDeployApart(t *testing.T) {
	topo, _, _ := topology.Linear(3)
	f, err := fleet.New(topo, fleet.Config{Net: netsim.Config{Stages: 9, ArraySize: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	o, err := New(Config{Topo: topo, Budgets: f.Budgets()}, f.Ctl)
	if err != nil {
		t.Fatal(err)
	}
	o.SetIntents([]Intent{
		{Query: query.Q3(40), Priority: 2, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}},
		{Query: query.Q4(40), Priority: 1, MinWidth: 1024, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	p, _, err := o.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if q3, q4 := p.Queries[0], p.Queries[1]; !q3.Admitted || q3.Single || q4.Admitted ||
		!strings.Contains(q4.Reason, modules.ErrSharedSnapshot.Error()) {
		t.Fatalf("q3 %+v, q4 %+v: want q3 partitioned and q4 refused for the shared snapshot", q3, q4)
	}
	for _, sw := range f.Names {
		qids := map[int]bool{}
		for _, prog := range f.Switches[sw].Node.Eng.Programs() {
			if prog.TotalParts > 1 {
				qids[prog.QID] = true
			}
		}
		if len(qids) > 1 {
			t.Errorf("%s holds partitions of %d queries", sw, len(qids))
		}
	}
}
