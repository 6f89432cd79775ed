package experiments

import (
	"fmt"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
)

// Fig17DeployRow is one Fig. 17(a) point reproduced through the real
// deploy path: orchestrator plan → controller.Remote transactional
// deploy → rpc → per-switch engines, instead of counting placement
// entries on paper.
type Fig17DeployRow struct {
	Topology        string
	StagesPerSwitch int
	Partitions      int
	Switches        int // switches granted at least one partition

	// PlannedEntries is what the plan's assignment costs (partition rule
	// counts summed over the assignment, as Fig17Placement counts them);
	// InstalledEntries is what the fleet's module tables actually hold
	// after the deploy, minus the one newton_fin bookkeeping entry each
	// installed program adds on top of its rule count.
	PlannedEntries   int
	InstalledEntries int
	Match            bool
}

// Fig17DeployResult is the deploy-path validation of Fig. 17.
type Fig17DeployResult struct {
	QueryStages int
	Rows        []Fig17DeployRow
}

// Fig17Deploy re-derives Fig. 17(a) points by actually deploying Q4:
// for each per-switch stage budget, a fleet of agents is built over the
// topology, the orchestrator plans and admits the intent, and the
// transactional deploy installs every partition. The row matches
// when the rules the engines hold equal the rules the plan promised —
// the placement numbers of Fig. 17 are real deployments, not estimates.
func Fig17Deploy() *Fig17DeployResult {
	isp := topology.ISPBackbone()
	ispEdges := []string{"SanFrancisco", "Sacramento", "LosAngeles", "SanDiego"}
	ft := topology.FatTree(4)
	var ftEdges []string
	for _, id := range ft.EdgeSwitches() {
		ftEdges = append(ftEdges, ft.Node(id).Name)
	}

	res := &Fig17DeployResult{}
	cases := []struct {
		name      string
		topo      *topology.Topology
		edges     []string
		stagesPer int
	}{
		{"isp", isp, ispEdges, 6},
		{"isp", isp, ispEdges, 4},
		{"isp", isp, ispEdges, 3},
		{"fattree4", ft, ftEdges, 6},
	}
	for _, c := range cases {
		row, stages := deployRow(c.topo, c.name, c.edges, c.stagesPer)
		res.QueryStages = stages
		res.Rows = append(res.Rows, row)
	}
	return res
}

// deployRow builds the fleet, converges one Q4 intent through the
// orchestrator, and audits the engines against the plan.
func deployRow(topo *topology.Topology, name string, edges []string, stagesPer int) (Fig17DeployRow, int) {
	// Partitions after the first carry the two-stage continuation prefix,
	// so devices need stagesPer+2 pipeline stages to host them.
	devStages := stagesPer + 2
	const width = 1 << 10

	f, err := fleet.New(topo, fleet.Config{Net: netsim.Config{Stages: devStages, ArraySize: 1 << 14}})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	orch, err := orchestrator.New(orchestrator.Config{
		Topo: topo, Budgets: f.Budgets(256), StagesPerSwitch: stagesPer,
	}, f.Ctl)
	if err != nil {
		panic(err)
	}
	orch.SetIntents([]orchestrator.Intent{{
		Query: query.Q4(40), Priority: 1,
		MinWidth: width, MaxWidth: width, Edges: edges,
	}})
	plan, _, err := orch.Converge()
	if err != nil {
		panic(fmt.Sprintf("fig17deploy %s stagesPer=%d: %v", name, stagesPer, err))
	}
	qp := plan.Queries[0]
	if !qp.Admitted {
		panic(fmt.Sprintf("fig17deploy %s stagesPer=%d: rejected: %s", name, stagesPer, qp.Reason))
	}

	// Planned cost: partition rule counts summed over the assignment.
	o := compiler.AllOpts()
	o.QID = 1
	o.Width = width
	logical, err := compiler.Compile(query.Q4(40), o)
	if err != nil {
		panic(err)
	}
	partProgs, err := modules.SliceProgram(logical, stagesPer)
	if err != nil {
		panic(err)
	}
	planned, instances := 0, 0
	for _, idxs := range qp.Parts {
		for _, k := range idxs {
			planned += partProgs[k].RuleCount()
			instances++
		}
	}

	// Ground truth: what the fleet's tables hold after the deploy. Each
	// installed program carries one newton_fin entry beyond RuleCount.
	installed := 0
	for _, name := range f.Names {
		installed += f.Switches[name].Node.Layout.TotalRuleEntries()
	}
	installed -= instances

	return Fig17DeployRow{
		Topology:         name,
		StagesPerSwitch:  stagesPer,
		Partitions:       qp.M,
		Switches:         len(qp.Parts),
		PlannedEntries:   planned,
		InstalledEntries: installed,
		Match:            planned == installed,
	}, qp.Stages
}

// String renders the deploy-path audit.
func (r *Fig17DeployResult) String() string {
	t := &table{header: []string{"Topology", "Stages/switch", "Partitions",
		"Switches", "Planned entries", "Installed entries", "Match"}}
	for _, row := range r.Rows {
		match := "OK"
		if !row.Match {
			match = "MISMATCH"
		}
		t.add(row.Topology, i2s(row.StagesPerSwitch), i2s(row.Partitions),
			i2s(row.Switches), i2s(row.PlannedEntries), i2s(row.InstalledEntries), match)
	}
	return fmt.Sprintf("Fig. 17 (deploy path): Q4 (%d stages) planned vs installed table entries\n%s",
		r.QueryStages, t.String())
}

// Metrics exports the installed-entry totals for newton-bench -json.
func (r *Fig17DeployResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[fmt.Sprintf("%s_m%d_installed", row.Topology, row.Partitions)] = float64(row.InstalledEntries)
	}
	return m
}
