package controller

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

func testNet(t *testing.T, switches int) (*netsim.Network, int, int) {
	t.Helper()
	topo, h1, h2 := topology.Linear(switches)
	net, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	return net, h1, h2
}

func TestInstallRemoveLifecycle(t *testing.T) {
	net, _, _ := testNet(t, 3)
	c := NewNewton(net, 1)
	dep, delay, err := c.Install(Spec{Query: query.Q1(40)})
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if dep.QID != 1 || dep.Rules == 0 || len(dep.Switches) != 3 {
		t.Errorf("deployment = %+v", dep)
	}
	if delay <= 0 || delay > 25*time.Millisecond {
		t.Errorf("install delay = %v, want (0, 25ms]", delay)
	}
	if len(c.Deployments()) != 1 {
		t.Error("deployment not tracked")
	}
	rDelay, err := c.Remove(dep.QID)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if rDelay <= 0 || rDelay > 25*time.Millisecond {
		t.Errorf("remove delay = %v", rDelay)
	}
	if len(c.Deployments()) != 0 {
		t.Error("deployment not released")
	}
	if _, err := c.Remove(dep.QID); err == nil {
		t.Error("double remove accepted")
	}
}

func TestInstallDelaysMatchFig11(t *testing.T) {
	// Fig. 11: every query installs and removes within ~20 ms; Q1 is the
	// cheapest at ~5 ms. 100 repetitions, as the paper does.
	net, _, _ := testNet(t, 3)
	c := NewNewton(net, 7)
	var q1Max time.Duration
	for rep := 0; rep < 100; rep++ {
		for i, q := range query.All() {
			dep, delay, err := c.Install(Spec{Query: q})
			if err != nil {
				t.Fatalf("rep %d Q%d: %v", rep, i+1, err)
			}
			if delay > 25*time.Millisecond {
				t.Errorf("Q%d install took %v", i+1, delay)
			}
			if i == 0 && delay > q1Max {
				q1Max = delay
			}
			if _, err := c.Remove(dep.QID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if q1Max > 8*time.Millisecond {
		t.Errorf("Q1 install delay %v, paper says ~5 ms", q1Max)
	}
}

func TestInstallDoesNotDisturbForwarding(t *testing.T) {
	// DESIGN invariant 6 / Fig. 10: query operations drop zero packets.
	net, h1, h2 := testNet(t, 3)
	c := NewNewton(net, 2)
	tr := trace.Generate(trace.Config{Seed: 5, Flows: 300, Duration: 300 * time.Millisecond})
	third := len(tr.Packets) / 3
	for i, pkt := range tr.Packets {
		switch i {
		case third: // install mid-stream
			if _, _, err := c.Install(Spec{Query: query.Q6(30)}); err != nil {
				t.Fatal(err)
			}
		case 2 * third: // remove mid-stream
			if _, err := c.Remove(1); err != nil {
				t.Fatal(err)
			}
		}
		net.Deliver(pkt, h1, h2)
	}
	delivered, dropped := net.Stats()
	if dropped != 0 {
		t.Fatalf("query operations dropped %d packets", dropped)
	}
	if delivered != uint64(len(tr.Packets)) {
		t.Fatalf("delivered %d of %d", delivered, len(tr.Packets))
	}
}

func TestUpdateSwapsQueries(t *testing.T) {
	net, _, _ := testNet(t, 2)
	c := NewNewton(net, 3)
	dep, _, err := c.Install(Spec{Query: query.Q5(40)})
	if err != nil {
		t.Fatal(err)
	}
	// Drill-down: replace the broad UDP query with a port-scan query.
	dep2, delay, err := c.Update(dep.QID, Spec{Query: query.Q4(40)})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if delay <= 0 || delay > 50*time.Millisecond {
		t.Errorf("update delay = %v", delay)
	}
	if len(c.Deployments()) != 1 {
		t.Errorf("deployments after update = %d", len(c.Deployments()))
	}
	if c.Deployments()[dep2.QID].Query.Name != "q4_port_scan" {
		t.Error("update did not swap the query")
	}
	if _, _, err := c.Update(999, Spec{Query: query.Q1(1)}); err == nil {
		t.Error("update of unknown deployment accepted")
	}
}

func TestShardMode(t *testing.T) {
	net, h1, h2 := testNet(t, 3)
	c := NewNewton(net, 4)
	if _, _, err := c.Install(Spec{Query: query.Q1(40), Mode: Shard, Width: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(trace.Config{Seed: 6, Flows: 0, Duration: 90 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A000001, Packets: 100},
		trace.SYNFlood{Victim: 0x0A000002, Packets: 100})
	for _, pkt := range tr.Packets {
		net.Deliver(pkt, h1, h2)
	}
	if got := len(net.DrainReports()); got != 2 {
		t.Fatalf("sharded deployment: %d reports, want 2 (once per victim)", got)
	}
}

func TestPartitionMode(t *testing.T) {
	topo := topology.FatTree(4)
	net, err := netsim.New(topo, netsim.Config{Stages: 12, ArraySize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	c := NewNewton(net, 5)
	dep, _, err := c.Install(Spec{
		Query: query.Q4(40), Mode: Partition,
		StagesPerSwitch: 6,
	})
	if err != nil {
		t.Fatalf("partition install: %v", err)
	}
	if dep.Parts < 2 {
		t.Fatalf("parts = %d, want >= 2", dep.Parts)
	}
	if len(dep.Placement) == 0 {
		t.Fatal("no placement recorded")
	}
	// Rule multiplexing: every switch holds each partition at most once.
	for sw, parts := range dep.Placement {
		seen := map[int]bool{}
		for _, p := range parts {
			if seen[p] {
				t.Fatalf("switch %d hosts partition %d twice", sw, p)
			}
			seen[p] = true
		}
	}
	if _, err := c.Remove(dep.QID); err != nil {
		t.Fatalf("partition remove: %v", err)
	}
	if total := totalEntries(net); total != baselineEntries(net) {
		t.Errorf("rules leaked after partition remove")
	}
}

// TestNewtonPartitionFailureLeavesNoOrphans: on a three-switch line at
// four stages a switch, q4's placement gives an edge switch two
// partitions whose rows want the same full bank, so the second does not
// fit. The first must not stay behind where no record knows about it:
// the failed install leaves every switch as it found it.
func TestNewtonPartitionFailureLeavesNoOrphans(t *testing.T) {
	topo, _, _ := topology.Linear(3)
	net, err := netsim.New(topo, netsim.Config{Stages: 12, ArraySize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	c := NewNewton(net, 1)
	_, _, err = c.Install(Spec{Query: query.Q4(40), Mode: Partition, StagesPerSwitch: 4, Width: 4096})
	var perr *PartialDeployError
	if !errors.As(err, &perr) {
		t.Fatalf("install = %v, want a *PartialDeployError (a bank cannot hold two full-width rows)", err)
	}
	if res := perr.Residual(); len(res) != 0 {
		t.Errorf("rollback left residue on %v", res)
	}
	for id, node := range net.Nodes() {
		if got := node.Eng.InstalledCount(); got != 0 {
			t.Errorf("switch %d holds %d programs after the failed install", id, got)
		}
	}
	if total := totalEntries(net); total != baselineEntries(net) {
		t.Errorf("%d rule entries left after the failed install", total)
	}
	if len(c.Deployments()) != 0 {
		t.Error("failed install was recorded as a deployment")
	}
	// The qid was not spent and the fleet is clean: the same query fits
	// at a width two rows can share.
	dep, _, err := c.Install(Spec{Query: query.Q4(40), Mode: Partition, StagesPerSwitch: 4, Width: 1024})
	if err != nil || dep.QID != 1 {
		t.Fatalf("install after the rollback = %+v, %v, want qid 1", dep, err)
	}
}

// TestNewtonMatchesRemote: the same query in each mode through Newton on
// one simulated network, and through Remote over real rpc agents on an
// identical one, leaves the same programs and rule entries switch for
// switch — both are one reconcile over two transports.
func TestNewtonMatchesRemote(t *testing.T) {
	for _, mode := range []Mode{Replicate, Shard, Partition} {
		t.Run(mode.String(), func(t *testing.T) {
			topo, _, _ := topology.Linear(3)
			build := func() *netsim.Network {
				net, err := netsim.New(topo, netsim.Config{Stages: 12, ArraySize: 1 << 14})
				if err != nil {
					t.Fatal(err)
				}
				return net
			}
			sim, wired := build(), build()

			spec := Spec{Query: query.Q4(40), Mode: mode, Width: 1 << 10}
			if mode == Partition {
				spec.StagesPerSwitch = 4
			}
			dep, _, err := NewNewton(sim, 1).Install(spec)
			if err != nil {
				t.Fatal(err)
			}

			clients := map[string]*rpc.Client{}
			w := Want{Query: spec.Query, Width: spec.Width, Sharded: mode == Shard}
			for _, id := range topo.Switches() {
				node := wired.Node(id)
				server, client := net.Pipe()
				go rpc.NewAgent(node.DP, node.Eng).HandleConn(server)
				c := rpc.NewClient(client)
				t.Cleanup(func() { c.Close() })
				clients[node.DP.ID] = c
				w.Targets = append(w.Targets, node.DP.ID)
			}
			if mode == Partition {
				w.Targets, w.StagesPer, w.Parts = nil, spec.StagesPerSwitch, map[string][]int{}
				for id, parts := range dep.Placement {
					w.Parts[wired.Node(id).DP.ID] = parts
				}
			}
			qid, _, err := NewRemote(clients, 1).Deploy(0, w)
			if err != nil || qid != dep.QID {
				t.Fatalf("Remote deploy = qid %d, %v, want qid %d", qid, err, dep.QID)
			}

			rules := 0
			for _, id := range topo.Switches() {
				l, r := sim.Node(id), wired.Node(id)
				if got, want := held(l.Eng), held(r.Eng); fmt.Sprint(got) != fmt.Sprint(want) || len(got) == 0 {
					t.Errorf("switch %d: Newton installed %v, Remote %v", id, got, want)
				}
				if got, want := l.Layout.TotalRuleEntries(), r.Layout.TotalRuleEntries(); got != want {
					t.Errorf("switch %d: %d rule entries under Newton, %d under Remote", id, got, want)
				}
				rules += l.Layout.TotalRuleEntries()
			}
			if dep.Rules != rules || len(dep.Switches) != 3 {
				t.Errorf("deployment records %d rules on %v; the switches hold %d", dep.Rules, dep.Switches, rules)
			}
		})
	}
}

func totalEntries(net *netsim.Network) int {
	n := 0
	for _, node := range net.Nodes() {
		n += node.Layout.TotalRuleEntries()
	}
	return n
}

func baselineEntries(net *netsim.Network) int { return 0 }

func TestPartitionModeNeedsStages(t *testing.T) {
	net, _, _ := testNet(t, 2)
	c := NewNewton(net, 6)
	if _, _, err := c.Install(Spec{Query: query.Q4(40), Mode: Partition}); err == nil {
		t.Error("partition mode without StagesPerSwitch accepted")
	}
}

func TestInstallErrors(t *testing.T) {
	net, _, _ := testNet(t, 2)
	c := NewNewton(net, 7)
	if _, _, err := c.Install(Spec{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, _, err := c.Install(Spec{Query: query.Q1(1), Switches: []int{999}}); err == nil {
		t.Error("unknown switch accepted")
	}
	if _, _, err := c.Install(Spec{Query: query.Q1(1), Mode: Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestConcurrentQueriesCoexist(t *testing.T) {
	net, h1, h2 := testNet(t, 1)
	c := NewNewton(net, 8)
	for _, q := range query.All() {
		if _, _, err := c.Install(Spec{Query: q, Width: 1 << 10}); err != nil {
			t.Fatalf("installing %s: %v", q.Name, err)
		}
	}
	if len(c.Deployments()) != 9 {
		t.Fatalf("deployments = %d", len(c.Deployments()))
	}
	tr := trace.Generate(trace.Config{Seed: 11, Flows: 100, Duration: 90 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A000001, Packets: 200},
		trace.PortScan{Scanner: 5, Victim: 0x0A000002, Ports: 100})
	for _, pkt := range tr.Packets {
		net.Deliver(pkt, h1, h2)
	}
	qids := map[int]bool{}
	for _, r := range net.DrainReports() {
		qids[r.QueryID] = true
	}
	if len(qids) < 2 {
		t.Errorf("only %d queries reported; concurrent queries not multiplexing", len(qids))
	}
}

func TestSonataOutageModel(t *testing.T) {
	net, h1, h2 := testNet(t, 1)
	s := NewSonata(net, 1)

	// Outage grows linearly with forwarding entries: ~7.5 s base, ~30 s
	// at 60 K entries (Fig. 10).
	base := s.UpdateQueries(net.Topo.Switches()[0], 0)
	if base < 7*time.Second || base > 8*time.Second {
		t.Errorf("base outage = %v, want ~7.5 s", base)
	}
	at60k := s.UpdateQueries(net.Topo.Switches()[0], 60000)
	if at60k < 27*time.Second || at60k > 33*time.Second {
		t.Errorf("60K-entry outage = %v, want ~30 s", at60k)
	}
	if at60k <= base {
		t.Error("outage not increasing with entries")
	}

	// And it actually interrupts traffic.
	net2, h1, h2 := testNet(t, 1)
	s2 := NewSonata(net2, 2)
	mk := func(ts uint64) *packet.Packet {
		return &packet.Packet{TS: ts, IP: packet.IPv4{Proto: packet.ProtoUDP, Src: 1, Dst: 2}, UDP: &packet.UDP{}}
	}
	net2.AdvanceTo(uint64(time.Second))
	out := s2.UpdateQueries(net2.Topo.Switches()[0], 10000)
	if _, ok := net2.Deliver(mk(uint64(time.Second)+uint64(out)/2), h1, h2); ok {
		t.Error("packet delivered during Sonata reboot")
	}
	if _, ok := net2.Deliver(mk(uint64(time.Second)+uint64(out)+1), h1, h2); !ok {
		t.Error("packet dropped after reboot completed")
	}
	_ = h1
	_ = h2
}

func TestModeStrings(t *testing.T) {
	if Replicate.String() != "replicate" || Shard.String() != "shard" || Partition.String() != "partition" {
		t.Error("mode names wrong")
	}
}

// TestShardModeRequiresCommonPath documents Shard mode's constraint:
// the shard set must lie on the monitored traffic's forwarding path.
// Sharding Q1 across ALL switches of a fat-tree loses the keys whose
// owner switch is off-path; sharding across the actual path switches
// catches every victim. (The paper's CQE testbed is a line for exactly
// this reason; multipath deployments use Partition mode instead.)
func TestShardModeRequiresCommonPath(t *testing.T) {
	topo := topology.FatTree(4)
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]

	victims := make([]uint32, 12)
	overlays := make([]trace.Overlay, len(victims))
	for i := range victims {
		victims[i] = 0x0A0000A0 + uint32(i)
		overlays[i] = trace.SYNFlood{Victim: victims[i], Packets: 100}
	}

	run := func(targets []int) int {
		net, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		c := NewNewton(net, 3)
		if _, _, err := c.Install(Spec{
			Query: query.Q1(40), Mode: Shard, Width: 1 << 12, Switches: targets,
		}); err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(trace.Config{Seed: 8, Flows: 0, Duration: 90 * time.Millisecond}, overlays...)
		var path []int
		for _, pkt := range tr.Packets {
			p, ok := net.Deliver(pkt, src, dst)
			if ok {
				path = p
			}
		}
		_ = path
		caught := map[uint64]bool{}
		for _, r := range net.DrainReports() {
			caught[r.Keys.Get(fields.DstIP)] = true
		}
		n := 0
		for _, v := range victims {
			if caught[uint64(v)] {
				n++
			}
		}
		return n
	}

	// Shard across the switches the traffic actually crosses: all
	// victims detected. (All flood packets share src/dst hosts; ECMP
	// varies per flow, so take one flow's path as the target set and
	// accept that a few other flows stray off it — the point is the
	// contrast below.)
	pkt0 := trace.Generate(trace.Config{Seed: 8, Flows: 0, Duration: 90 * time.Millisecond}, overlays[0]).Packets[0]
	netProbe, _ := netsim.New(topo, netsim.Config{Stages: 12})
	onPath, _ := netProbe.Deliver(pkt0, src, dst)
	onPathCaught := run(onPath)

	// Shard across every switch of the fat-tree: most owners are
	// off-path and their keys are lost.
	allCaught := run(topo.Switches())

	if allCaught >= onPathCaught {
		t.Errorf("sharding across all switches caught %d/%d but on-path sharding caught %d — constraint not visible",
			allCaught, len(victims), onPathCaught)
	}
	if onPathCaught < len(victims)/2 {
		t.Errorf("on-path sharding caught only %d/%d victims", onPathCaught, len(victims))
	}
}
