package netsim

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

func linearNet(t *testing.T, switches, stages int) (*Network, int, int) {
	t.Helper()
	topo, h1, h2 := topology.Linear(switches)
	net, err := New(topo, Config{Stages: stages, ArraySize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return net, h1, h2
}

func TestDeliveryBasics(t *testing.T) {
	net, h1, h2 := linearNet(t, 3, 12)
	pkt := &packet.Packet{TS: 5, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 2},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}}
	path, ok := net.Deliver(pkt, h1, h2)
	if !ok || len(path) != 3 {
		t.Fatalf("delivery failed: %v %v", path, ok)
	}
	d, dr := net.Stats()
	if d != 1 || dr != 0 {
		t.Errorf("stats = %d/%d", d, dr)
	}
	net.ResetStats()
	if d, _ := net.Stats(); d != 0 {
		t.Error("ResetStats failed")
	}
}

func TestOutageDropsTraffic(t *testing.T) {
	net, h1, h2 := linearNet(t, 3, 12)
	mid := net.Topo.EdgeSwitches()[1]
	net.SetOutage(mid, 100, 200)
	mk := func(ts uint64) *packet.Packet {
		return &packet.Packet{TS: ts, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 2},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}}
	}
	if _, ok := net.Deliver(mk(50), h1, h2); !ok {
		t.Error("pre-outage packet dropped")
	}
	if _, ok := net.Deliver(mk(150), h1, h2); ok {
		t.Error("in-outage packet delivered")
	}
	if _, ok := net.Deliver(mk(250), h1, h2); !ok {
		t.Error("post-outage packet dropped")
	}
}

func TestClockAndEpochs(t *testing.T) {
	net, h1, h2 := linearNet(t, 1, 12)
	sw := net.Node(net.Topo.Switches()[0])
	o := compiler.AllOpts()
	o.QID = 1
	installOn(t, net, query.Q1(40), o, net.Topo.Switches())
	counted := func() (n uint64) {
		for _, b := range sw.Eng.LiveBanks(nil) {
			for _, v := range b.Values {
				n += uint64(v)
			}
		}
		return n
	}
	syn := &packet.Packet{TS: 5, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 2},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}}
	if _, ok := net.Deliver(syn, h1, h2); !ok || counted() == 0 {
		t.Fatalf("the SYN was not counted (delivered %v)", ok)
	}
	net.AdvanceTo(uint64(250 * time.Millisecond)) // crosses 2 window boundaries
	if sw.Layout.Epoch() != 2 {
		t.Errorf("epochs rolled %d times, want 2", sw.Layout.Epoch())
	}
	if got := counted(); got != 0 {
		t.Errorf("registers survived two window rolls: %d", got)
	}
	// Clock never goes backwards.
	net.AdvanceTo(0)
	if net.Clock() != uint64(250*time.Millisecond) {
		t.Error("clock went backwards")
	}
}

// TestNewRefusesNoStages: a negative stage count (zero is the default)
// is New's error, not a panic.
func TestNewRefusesNoStages(t *testing.T) {
	topo, _, _ := topology.Linear(2)
	if net, err := New(topo, Config{Stages: -1}); err == nil || net != nil {
		t.Fatalf("New with -1 stages = %v, %v; want a refusal", net, err)
	}
}

// installOn compiles q and installs it on the given switches.
func installOn(t *testing.T, net *Network, q *query.Query, o compiler.Options, sws []int) {
	t.Helper()
	for _, id := range sws {
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Node(id).Eng.Install(p); err != nil {
			t.Fatal(err)
		}
	}
}

func runTrace(t *testing.T, net *Network, tr *trace.Trace, h1, h2 int) {
	t.Helper()
	for _, pkt := range tr.Packets {
		net.Deliver(pkt, h1, h2)
	}
}

func TestReplicatedQueryReportsPerHop(t *testing.T) {
	// The sole-query-execution model (Fig. 13's baselines): the same
	// query on all 3 switches reports 3x.
	net, h1, h2 := linearNet(t, 3, 12)
	o := compiler.AllOpts()
	o.QID = 1
	o.Width = 1 << 14
	installOn(t, net, query.Q1(40), o, net.Topo.Switches())
	tr := trace.Generate(trace.Config{Seed: 1, Flows: 0, Duration: 90 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A000001, Packets: 100})
	runTrace(t, net, tr, h1, h2)
	reports := net.DrainReports()
	if len(reports) != 3 {
		t.Fatalf("replicated execution: %d reports, want 3 (one per hop)", len(reports))
	}
}

func TestShardedQueryReportsOnce(t *testing.T) {
	// Cross-switch execution (Fig. 13, Newton): the switches partition
	// the key space; monitoring data is reported once regardless of path
	// length.
	net, h1, h2 := linearNet(t, 3, 12)
	sws := net.Topo.Switches()
	for i, id := range sws {
		o := compiler.AllOpts()
		o.QID = 1
		o.Width = 1 << 14
		o.ShardIndex, o.ShardCount = uint32(i), uint32(len(sws))
		p, err := compiler.Compile(query.Q1(40), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Node(id).Eng.Install(p); err != nil {
			t.Fatal(err)
		}
	}
	victims := []uint32{0x0A000001, 0x0A000002, 0x0A000003, 0x0A000004}
	ovs := make([]trace.Overlay, len(victims))
	for i, v := range victims {
		ovs[i] = trace.SYNFlood{Victim: v, Packets: 100}
	}
	tr := trace.Generate(trace.Config{Seed: 2, Flows: 0, Duration: 90 * time.Millisecond}, ovs...)
	runTrace(t, net, tr, h1, h2)
	reports := net.DrainReports()
	if len(reports) != len(victims) {
		t.Fatalf("sharded execution: %d reports, want %d (once per victim)", len(reports), len(victims))
	}
}

func TestCQESPHeaderTravelsAndStrips(t *testing.T) {
	net, _, _ := linearNet(t, 2, 12)
	o := compiler.AllOpts()
	o.QID = 1
	p, err := compiler.Compile(query.Q1(0), o)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := modules.SliceProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	sws := net.Topo.Switches()
	for i, part := range parts {
		if err := net.Node(sws[i]).Eng.Install(part); err != nil {
			t.Fatal(err)
		}
	}
	pkt := &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 9},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}}

	// After the first switch only, the packet must carry an SP header.
	net.AdvanceTo(pkt.TS)
	net.Node(sws[0]).DP.Process(pkt)
	if pkt.SP == nil {
		t.Fatal("no SP header after partition 0")
	}
	if pkt.SP.Part != 1 || pkt.SP.QID != 1 {
		t.Errorf("SP cursor = qid %d part %d", pkt.SP.QID, pkt.SP.Part)
	}
	// After the second (final) switch it must be stripped.
	net.Node(sws[1]).DP.Process(pkt)
	if pkt.SP != nil {
		t.Fatal("SP header not stripped at the last Newton hop")
	}
}

func TestNonParticipatingSwitchForwardsSP(t *testing.T) {
	net, _, _ := linearNet(t, 3, 12)
	sws := net.Topo.Switches()
	// Middle switch has no queries; SP must pass through untouched.
	o := compiler.AllOpts()
	o.QID = 1
	p, _ := compiler.Compile(query.Q1(0), o)
	parts, err := modules.SliceProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	net.Node(sws[0]).Eng.Install(parts[0])
	net.Node(sws[2]).Eng.Install(parts[1])

	pkt := &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 9},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN}}
	net.AdvanceTo(1)
	net.Node(sws[0]).DP.Process(pkt)
	if pkt.SP == nil {
		t.Fatal("no SP after first hop")
	}
	net.Node(sws[1]).DP.Process(pkt) // empty middle switch
	if pkt.SP == nil {
		t.Fatal("middle switch stripped a snapshot it does not own")
	}
	net.Node(sws[2]).DP.Process(pkt)
	if pkt.SP != nil {
		t.Fatal("final partition did not strip the SP")
	}
	if net.Node(sws[2]).DP.PendingReports() != 1 {
		t.Error("final partition did not report")
	}
}

// TestCQEPartitionZeroAlloc: a packet leaving a non-final partition of a
// sliced query carries its result snapshot in its own storage, so the
// cross-switch packet path allocates nothing either. q4 is sliced across
// two switches in a line, and every packet is a fresh (host, port) the
// first half passes on. Measured with a header allocated per snapshot:
// 1 allocation a packet.
func TestCQEPartitionZeroAlloc(t *testing.T) {
	net, _, _ := linearNet(t, 2, 12)
	o := compiler.AllOpts()
	o.QID = 4
	p, err := compiler.Compile(query.Q4(100), o)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := modules.SliceProgram(p, (p.NumStages()+1)/2)
	if err != nil || len(parts) != 2 {
		t.Fatalf("slicing q4 in two: %d parts, %v", len(parts), err)
	}
	sws := net.Topo.Switches()
	for i, part := range parts {
		if err := net.Node(sws[i]).Eng.Install(part); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	pkts := make([]*packet.Packet, runs+1) // AllocsPerRun warms up with one more
	for i := range pkts {
		pkts[i] = &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 0x0A000000 + uint32(i)},
			TCP: &packet.TCP{SrcPort: 1, DstPort: uint16(1000 + i), Flags: packet.FlagSYN}}
	}
	net.AdvanceTo(1)
	first, last := net.Node(sws[0]).DP, net.Node(sws[1]).DP
	attached, i := 0, 0
	avg := testing.AllocsPerRun(runs, func() {
		pkt := pkts[i]
		i++
		first.Process(pkt)
		if pkt.SP != nil {
			attached++
		}
		last.Process(pkt)
		if pkt.SP != nil {
			t.Fatal("the final partition did not strip the snapshot")
		}
	})
	if attached != len(pkts) {
		t.Fatalf("%d of %d packets left the first partition with a snapshot", attached, len(pkts))
	}
	if avg != 0 {
		t.Fatalf("a packet through both partitions allocates %.2f times", avg)
	}
}

func TestDeliverUnroutable(t *testing.T) {
	topo := topology.New()
	h1 := topo.AddNode("h1", topology.Host)
	h2 := topo.AddNode("h2", topology.Host)
	net, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoUDP, Src: 1, Dst: 2},
		UDP: &packet.UDP{}}
	if _, ok := net.Deliver(pkt, h1, h2); ok {
		t.Error("unroutable packet delivered")
	}
	if _, dr := net.Stats(); dr != 1 {
		t.Error("drop not counted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Stages != 12 || c.ArraySize != 4096 || c.Window != 100*time.Millisecond {
		t.Errorf("defaults = %+v", c)
	}
}

// TestPlacementSurvivesLinkFailureEndToEnd is the network-wide story in
// one test: a partitioned query placed with Algorithm 2, a detection, a
// link failure that reroutes the attack, and a second detection on the
// new path — with no placement recomputation.
func TestPlacementSurvivesLinkFailureEndToEnd(t *testing.T) {
	topo := topology.FatTree(4)
	net, err := New(topo, Config{Stages: 12, ArraySize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	q := query.Q4(40)
	o := compiler.AllOpts()
	o.QID = 1
	logical, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	const stagesPer = 8
	parts, err := modules.SliceProgram(logical, stagesPer)
	if err != nil {
		t.Fatal(err)
	}
	pl, m, err := placement.Place(topo, topo.EdgeSwitches(), logical.NumStages(), stagesPer)
	if err != nil {
		t.Fatal(err)
	}
	if m != len(parts) {
		t.Fatalf("placement/slice disagree: %d vs %d", m, len(parts))
	}
	for sw, partIdxs := range pl {
		for _, d := range partIdxs {
			cp, err := modules.SliceProgram(logical, stagesPer)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Node(sw).Eng.Install(cp[d]); err != nil {
				t.Fatal(err)
			}
		}
	}

	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	victim := uint32(0x0A000063)
	detect := func(label string, seed int64, base uint64) []int {
		tr := trace.Generate(trace.Config{Seed: seed, Flows: 100, Duration: 90 * time.Millisecond},
			trace.PortScan{Scanner: 0x0B000001, Victim: victim, Ports: 120})
		var attackPath []int
		for _, pkt := range tr.Packets {
			pkt.TS += base
			p, ok := net.Deliver(pkt, src, dst)
			if ok && pkt.TCP != nil && pkt.IP.Dst == victim {
				attackPath = p
			}
		}
		col := analyzer.NewCollector(uint64(q.Window), q.ReportKeys())
		col.AddAll(net.DrainReports())
		if !col.FlaggedKeys()[uint64(victim)] {
			t.Fatalf("%s: scan not detected", label)
		}
		return attackPath
	}

	path1 := detect("before failure", 21, 0)
	if len(path1) < 2 {
		t.Fatal("path too short")
	}
	if !topo.SetLink(path1[0], path1[1], false) {
		t.Fatal("failed to fail the link")
	}
	path2 := detect("after failure", 22, uint64(200*time.Millisecond))
	same := len(path1) == len(path2)
	if same {
		for i := range path1 {
			if path1[i] != path2[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("traffic did not reroute; the resilience claim is untested")
	}
}
