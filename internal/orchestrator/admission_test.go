package orchestrator

import (
	"fmt"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// catalogIntents is the nine evaluation queries, Q1 first, at priority
// prio(i).
func catalogIntents(prio func(i int) int) []Intent {
	var out []Intent
	for i, q := range query.All() {
		out = append(out, Intent{Query: q, Priority: prio(i)})
	}
	return out
}

// TestAdmissionOneSwitch holds the admission walk to its one-device
// behaviour: on a single switch, Plan admits at the widest rung that
// fits, degrades before it rejects, and gives every degrade and reject a
// reason. Plan is pure, so no controller is needed.
func TestAdmissionOneSwitch(t *testing.T) {
	q1 := func(minW, maxW uint32) []Intent {
		return []Intent{{Query: query.Q1(40), Priority: 1, MinWidth: minW, MaxWidth: maxW}}
	}
	var copies []Intent
	for i := 0; i < 40; i++ {
		q := query.Q1(40)
		q.Name = fmt.Sprintf("q1_copy%d", i)
		copies = append(copies, Intent{Query: q, Priority: 1})
	}
	cases := []struct {
		name    string
		budget  scheduler.Budget
		intents []Intent
		check   func(t *testing.T, p *Plan)
	}{
		{"ample budget admits all at full width", scheduler.Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024},
			catalogIntents(func(int) int { return 1 }), func(t *testing.T, p *Plan) {
				for _, qp := range p.Queries {
					if !qp.Admitted || qp.Width != 4096 {
						t.Errorf("%s: admitted=%v width=%d (%s), want admitted at 4096", qp.Intent.Query.Name, qp.Admitted, qp.Width, qp.Reason)
					}
				}
			}},
		{"no degrade below MinWidth", scheduler.Budget{Stages: 16, ArraySize: 2047, RulesPerModule: 256},
			q1(2048, 2048), func(t *testing.T, p *Plan) {
				if qp := p.Queries[0]; qp.Admitted || qp.Reason == "" {
					t.Errorf("admitted=%v reason=%q, want refused with a reason", qp.Admitted, qp.Reason)
				}
			}},
		{"MinWidth off the halving chain", scheduler.Budget{Stages: 16, ArraySize: 350, RulesPerModule: 256},
			q1(300, 400), func(t *testing.T, p *Plan) {
				if qp := p.Queries[0]; !qp.Admitted || qp.Width != 300 || !strings.Contains(qp.Reason, "degraded") {
					t.Errorf("admitted=%v width=%d reason=%q, want degraded to the MinWidth rung 300", qp.Admitted, qp.Width, qp.Reason)
				}
			}},
		{"inverted bounds", scheduler.Budget{Stages: 16, ArraySize: 1 << 20, RulesPerModule: 1024},
			q1(1024, 300), func(t *testing.T, p *Plan) {
				if qp := p.Queries[0]; qp.Admitted || !strings.Contains(qp.Reason, "inverted width bounds") {
					t.Errorf("admitted=%v reason=%q, want an inverted-bounds rejection", qp.Admitted, qp.Reason)
				}
			}},
		{"rule capacity", scheduler.Budget{Stages: 16, ArraySize: 1 << 30, RulesPerModule: 8},
			copies, func(t *testing.T, p *Plan) {
				admitted, rejected := 0, 0
				for _, qp := range p.Queries {
					if qp.Admitted {
						admitted++
						continue
					}
					rejected++
					if !strings.Contains(qp.Reason, "module at stage") || !strings.Contains(qp.Reason, "full (8 rules)") {
						t.Fatalf("%s: reason %q, want a rule-capacity refusal", qp.Intent.Query.Name, qp.Reason)
					}
				}
				if admitted == 0 || rejected == 0 {
					t.Errorf("%d admitted, %d rejected: want some of each", admitted, rejected)
				}
			}},
		{"default budget", scheduler.Budget{},
			catalogIntents(func(int) int { return 1 }), func(t *testing.T, p *Plan) {
				s, admitted := Summary(p), false
				for _, qp := range p.Queries {
					admitted = admitted || qp.Admitted
					if !strings.Contains(s, qp.Intent.Query.Name) {
						t.Errorf("summary has no row for %s:\n%s", qp.Intent.Query.Name, s)
					}
				}
				if !admitted {
					t.Error("the default budget admits nothing")
				}
			}},
	}
	topo, _, _ := topology.Linear(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := New(Config{Topo: topo, Budgets: map[string]scheduler.Budget{"s1": tc.budget}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			o.SetIntents(tc.intents)
			p, _, err := o.Plan()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, p)
		})
	}
}

// TestAdmissionOneSwitchIsSound: whatever the walk admits on one switch
// installs on a real device with exactly the planned budget.
func TestAdmissionOneSwitchIsSound(t *testing.T) {
	topo, _, _ := topology.Linear(1)
	f, err := fleet.New(topo, fleet.Config{Net: netsim.Config{Stages: 16, ArraySize: 16384}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	o, err := New(Config{Topo: topo, Budgets: f.Budgets()}, f.Ctl)
	if err != nil {
		t.Fatal(err)
	}
	o.SetIntents(catalogIntents(func(i int) int { return 9 - i }))
	p, _, err := o.Converge()
	if err != nil {
		t.Fatalf("plan unsound: %v", err)
	}
	want := 0
	for _, qp := range p.Queries {
		switch {
		case qp.Admitted && qp.Single:
			want++
		case qp.Admitted:
			want += len(qp.Parts["s1"])
		}
	}
	if want == 0 {
		t.Fatal("nothing admitted — soundness vacuous")
	}
	if got := f.Switches["s1"].Node.Eng.InstalledCount(); got != want {
		t.Fatalf("s1 holds %d programs, the plan admitted %d", got, want)
	}
}
