package main

import (
	"fmt"
	"strings"

	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
)

// dials is one workload: a fleet shape, a packet set, and how often
// each step of the cycle runs. The cycle itself (cycle.go) is the same
// loop for all four.
type dials struct {
	name string
	why  string

	switches   int
	stages     int
	arraySize  uint32
	width      uint32 // every base intent is pinned to this sketch width
	keepEpochs int    // analyzer retention; warm-up runs keepEpochs+2 cycles

	packets     int  // packets per switch per cycle
	flows       int  // benign background flows
	attackScale int  // divides the attack overlays' sizes (small packet sets)
	flood       bool // all-attack packet set, sources re-spoofed every cycle
	// passes is how many consecutive cycles' packet steps make one
	// pkts_per_s sample (0 means 1). Flood's four passes are exactly one
	// fill of a switch's 32768-entry dispatch cache, so every sample holds
	// one flush-all and one whole regrowth of the map wherever it starts.
	// Such a sample takes a quarter of a second and is held to the
	// long-sample minimum.
	passes int

	alerts int // alert probes per cycle
	reads  int // operator reads per cycle

	// thresholds are the nine catalog queries' report thresholds, q1..q9.
	thresholds [9]int64
	// intents builds the base intent set.
	intents func(d *dials) []orchestrator.Intent
	// ops is the intent-probe rotation of the probe blocks, one op per
	// cycle; quiet says whether the run has quiet blocks between them.
	ops   []probeOp
	quiet bool
}

// catalogKey names the i-th catalog query ("q1".."q9").
func catalogKey(i int) string { return fmt.Sprintf("q%d", i+1) }

// catalogOf recovers the catalog key from an intent's name: catalog
// names start with it ("q4_port_scan") and the benchmark's renamed
// copies end with it ("t1/q4", "probe/q1").
func catalogOf(name string) string {
	name = name[strings.LastIndexByte(name, '/')+1:]
	if i := strings.IndexByte(name, '_'); i >= 0 {
		name = name[:i]
	}
	return name
}

// catalog builds the nine evaluation queries at the workload's
// thresholds, in order q1..q9.
func (d *dials) catalog() []*query.Query {
	t := d.thresholds
	return []*query.Query{
		query.Q1(uint64(t[0])), query.Q2(uint64(t[1])), query.Q3(uint64(t[2])),
		query.Q4(uint64(t[3])), query.Q5(uint64(t[4])),
		query.Q6(t[5]), query.Q7(t[6]), query.Q8(t[7]), query.Q9(t[8]),
	}
}

// pinned wraps a query as an intent at exactly the workload's width.
func (d *dials) pinned(q *query.Query, prio int, edges ...string) orchestrator.Intent {
	return orchestrator.Intent{Query: q, Priority: prio,
		MinWidth: d.width, MaxWidth: d.width, Edges: edges}
}

// renamed copies a catalog query under a tenant- or probe-specific name.
func renamed(q *query.Query, name string) *query.Query {
	cp := *q
	cp.Name = name
	return &cp
}

// nineIntents is the whole catalog, replicated on every switch.
func nineIntents(d *dials) []orchestrator.Intent {
	return someIntents(d, 0, 1, 2, 3, 4, 5, 6, 7, 8)
}

// wideIntents is the part of the catalog epoch-storm deploys: 18 sketch
// rows of 16384 registers per switch. All nine would be 43 rows and a
// 25 ms settle, too slow for 500 cycles a run.
func wideIntents(d *dials) []orchestrator.Intent { return someIntents(d, 0, 2, 3, 5) }

func someIntents(d *dials, idx ...int) []orchestrator.Intent {
	cat := d.catalog()
	var out []orchestrator.Intent
	for _, i := range idx {
		out = append(out, d.pinned(cat[i], 20-i))
	}
	return out
}

// steadyThresholds are query.DefaultThresholds in catalog order, but
// for q8. At 1000 — two connections' worth — q8 reads any three benign
// hosts that share both Count-Min slots and have sent their SYNs but not
// yet their data as one slowloris victim: a few dozen alerts a cycle,
// how many depending on the seed. No slowloris is injected here, so its
// threshold is set where that cannot happen and the report volume stays
// the injected attacks'.
var steadyThresholds = [9]int64{40, 20, 40, 40, 40, 30, 20, 4000, 5}

// smallThresholds go with the 256-packet sets, whose attack overlays
// are an eighth of steady's.
var smallThresholds = [9]int64{4, 2, 4, 4, 4, 3, 2, 4000, 1}

// never is a threshold no packet set here reaches: the query still
// counts every packet, it just never reports.
const never = 1 << 40

// probeName is the extra intent the add/withdraw probe deploys.
const probeName = "probe/q1"

// addWithdraw is the intent probe of the three packet- and
// telemetry-bound workloads: deploy one more replicated intent, wait
// for its first settled result, withdraw it.
var addWithdraw = []probeOp{{
	kind: "add", result: []string{probeName},
	apply: func(c *cycler) {
		c.f.orch.SetIntents(append(c.d.intents(c.d), c.d.pinned(renamed(c.d.catalog()[0], probeName), 1)))
	},
	undo: func(c *cycler) { c.f.orch.SetIntents(c.d.intents(c.d)) },
}}

var workloads = []*dials{
	{
		name:     "steady",
		why:      "benign 2000-flow traffic that fits the dispatch cache: the hit path and the loaded-switch headline",
		switches: 2, stages: 16, arraySize: 1 << 16, width: 4096, keepEpochs: 4,
		packets: 16384, flows: 2000, attackScale: 1,
		alerts: 4, reads: 4,
		thresholds: steadyThresholds,
		intents:    nineIntents, ops: addWithdraw, quiet: true,
	},
	{
		name:     "flood",
		why:      "spoofed SYN flood and port scan, every packet a new 5-tuple: the cache-miss path and the report path under load",
		switches: 2, stages: 16, arraySize: 1 << 16, width: 4096, keepEpochs: 4,
		packets: floodVictims*floodSYNs + floodScans*floodPorts, flood: true, passes: 4,
		alerts: 4, reads: 4,
		// Every victim crosses q1's threshold and every scan q4's, and the
		// other switch reports each of them again; the other queries count
		// but stay silent so the report volume does not depend on the seed.
		thresholds: [9]int64{floodSYNs / 2, never, never, floodPorts / 2, never, never, never, never, never},
		intents:    nineIntents, ops: addWithdraw, quiet: true,
	},
	{
		name:     "epoch-storm",
		why:      "four switches exporting wide banks, few packets: snapshot encode, wire, decode and merge dominate, reads beside writes",
		switches: 4, stages: 16, arraySize: 1 << 17, width: 16384, keepEpochs: 4,
		packets: 128, flows: 12, attackScale: 16,
		alerts: 4, reads: 64,
		thresholds: [9]int64{2, 1, 2, 2, 2, 1, 1, 4000, 0},
		intents:    wideIntents, ops: addWithdraw, quiet: true,
	},
	{
		name:     "churn",
		why:      "four switches in a line under constant intent change: compiler, scheduler, placement, orchestrator, controller, rpc and install do the work",
		switches: 4, stages: 9, arraySize: 1 << 14, width: 1024, keepEpochs: 4,
		packets: 256, flows: 24, attackScale: 8,
		alerts: 1, reads: 1,
		thresholds: smallThresholds,
		intents:    tenantIntents, ops: churnOps, quiet: false,
	},
}

func workloadByName(name string) *dials {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

// churnTenants is how many tenants share the churn fleet. Traffic
// crosses the line s1..s4 in that order, so every tenant's monitored
// edge is s1.
const churnTenants = 4

// tenantIntents gives every tenant its own single-switch q1 on the
// ingress edge.
func tenantIntents(d *dials) []orchestrator.Intent {
	var out []orchestrator.Intent
	for t := 0; t < churnTenants; t++ {
		q := renamed(d.catalog()[0], fmt.Sprintf("t%d/q1", t))
		out = append(out, d.pinned(q, 20-t, "s1"))
	}
	return out
}

// churnOps rotates through every kind of change the orchestrator can
// make, each from the same starting state so a kind's samples are
// identical work: a single-switch add (q7 fits s1's nine stages), a
// CQE-partitioned add (the 11-stage q4 does not and is sliced over s1
// and s2), a drain of s2 that takes the second partition away
// (ActionUpdate), its undrain, an in-place width resize of the first
// add (ActionResize) and the withdraw that restores the base set.
var churnOps = []probeOp{
	{kind: "add", result: []string{"t0/q7"}, apply: func(c *cycler) {
		c.extra = append(c.extra, c.d.pinned(renamed(c.d.catalog()[6], "t0/q7"), 5, "s1"))
		c.f.orch.SetIntents(append(c.d.intents(c.d), c.extra...))
	}},
	{kind: "add_cqe", result: []string{"t1/q4"}, apply: func(c *cycler) {
		c.extra = append(c.extra, c.d.pinned(renamed(c.d.catalog()[3], "t1/q4"), 4, "s1"))
		c.f.orch.SetIntents(append(c.d.intents(c.d), c.extra...))
	}},
	{kind: "drain", result: []string{"t1/q4"}, apply: func(c *cycler) { c.f.orch.Drain("s2") }},
	{kind: "undrain", result: []string{"t1/q4"}, apply: func(c *cycler) { c.f.orch.Undrain("s2") }},
	{kind: "resize", result: []string{"t0/q7"}, apply: func(c *cycler) {
		c.extra[0].MinWidth, c.extra[0].MaxWidth = c.d.width/2, c.d.width/2
		c.f.orch.SetIntents(append(c.d.intents(c.d), c.extra...))
	}},
	{kind: "withdraw", apply: func(c *cycler) {
		c.extra = nil
		c.f.orch.SetIntents(c.d.intents(c.d))
	}},
}
