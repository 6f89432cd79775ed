// Package placement implements Newton's resilient module rule placement
// (Algorithm 2, §5.2): queries are placed along *all possible paths*
// without consulting forwarding rules, so any rerouting event still
// traverses the query's partitions in order. The DFS assigns partition d
// to every switch reachable at depth d from any monitored edge switch;
// rule multiplexing (a switch holds each partition at most once) bounds
// the redundancy.
package placement

import (
	"fmt"
	"sort"

	"github.com/newton-net/newton/internal/topology"
)

// Placement maps each switch to the (sorted, deduplicated) partition
// indices it must host.
type Placement map[int][]int

// Place runs Algorithm 2: slice a query of `totalStages` stages into
// M = ceil(totalStages / stagesPerSwitch) partitions and place partition
// d on every switch at DFS depth d from the monitored traffic's edge
// switches.
//
// The traversal memoizes (switch, depth) pairs: a switch reached at a
// depth it was already expanded at is not re-expanded, which bounds the
// walk to O((V+E)·M) instead of enumerating every simple path — the
// original formulation (a DFS that unmarked `discovered` on unwind) was
// exponential on meshy fat-tree topologies. Memoization assigns
// partition d to every switch reachable by a *walk* of depth d, a
// superset of the simple-path assignment that coincides with it on the
// evaluation's topologies (see the package tests) and can only add
// redundancy elsewhere: every simple path is a walk, so nothing the
// original algorithm placed is lost, the per-switch partition
// multiplexing bound is unchanged, and CoversPath over any rerouted
// path can only improve.
func Place(topo *topology.Topology, edgeSwitches []int, totalStages, stagesPerSwitch int) (Placement, int, error) {
	if stagesPerSwitch <= 0 {
		return nil, 0, fmt.Errorf("placement: non-positive stages per switch")
	}
	if totalStages <= 0 {
		return nil, 0, fmt.Errorf("placement: non-positive query stages")
	}
	m := (totalStages + stagesPerSwitch - 1) / stagesPerSwitch
	p := Placement{}
	type visit struct{ s, d int }
	expanded := map[visit]bool{}

	var dfs func(s, d int)
	dfs = func(s, d int) {
		if d > m || expanded[visit{s, d}] {
			return
		}
		expanded[visit{s, d}] = true
		part := d - 1
		if !contains(p[s], part) {
			p[s] = append(p[s], part)
		}
		for _, n := range topo.SwitchNeighbors(s) {
			dfs(n, d+1)
		}
	}
	for _, s := range edgeSwitches {
		if topo.Node(s).Kind == topology.Host {
			return nil, 0, fmt.Errorf("placement: %s is a host, not an edge switch", topo.Node(s).Name)
		}
		dfs(s, 1)
	}
	for s := range p {
		sort.Ints(p[s])
	}
	return p, m, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Entries computes the total and per-switch-average table entries a
// placement installs, given the rule count of each partition — the two
// curves of Fig. 17.
func (p Placement) Entries(partitionRules []int) (total int, avg float64) {
	if len(p) == 0 {
		return 0, 0
	}
	for _, parts := range p {
		for _, d := range parts {
			if d < len(partitionRules) {
				total += partitionRules[d]
			}
		}
	}
	return total, float64(total) / float64(len(p))
}

// CoversPath reports whether a switch path would traverse the query's M
// partitions in order 0..M-1 (each partition found at or after the
// previous one's position) — the correctness condition resilient
// placement guarantees for any possible path. A path that reaches fewer
// than M partitions does not complete the query on the data plane; the
// returned count says how many it reaches.
func (p Placement) CoversPath(path []int, m int) (completed int) {
	need := 0
	for _, s := range path {
		if need < m && contains(p[s], need) {
			need++
		}
	}
	return need
}
