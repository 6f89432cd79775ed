package netsim

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// workersNet builds a single-switch network with the given lane count
// and Q1 installed.
func workersNet(t *testing.T, workers int, threshold uint64) (*Network, int, int) {
	t.Helper()
	topo, h1, h2 := topology.Linear(1)
	net, err := New(topo, Config{Stages: 12, ArraySize: 1 << 16, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	o := compiler.AllOpts()
	o.QID = 1
	o.Width = 1 << 14
	installOn(t, net, query.Q1(threshold), o, net.Topo.Switches())
	return net, h1, h2
}

func scalingTrace() *trace.Trace {
	return trace.Generate(trace.Config{Seed: 11, Flows: 300, Duration: 250 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A000001, Packets: 200},
		trace.SYNFlood{Victim: 0x0A000002, Packets: 200})
}

// TestLaneHashShardsBothDirectionsTogether asserts the delivery shard
// hash is symmetric: a flow and its reverse land on the same lane, so
// bidirectional conversations keep per-flow order under any worker
// count.
func TestLaneHashShardsBothDirectionsTogether(t *testing.T) {
	k := packet.FlowKey{Src: 0x0A000001, Dst: 0x0B000002, SPort: 1234, DPort: 80, Proto: packet.ProtoTCP}
	if k.LaneHash() != k.Reverse().LaneHash() {
		t.Fatalf("LaneHash not symmetric: %x vs %x", k.LaneHash(), k.Reverse().LaneHash())
	}
	// Distinct flows should spread: over many flows, every lane of 4 gets
	// a reasonable share.
	var lanes [4]int
	for i := 0; i < 4096; i++ {
		k := packet.FlowKey{Src: uint32(i), Dst: 0x0B000002, SPort: uint16(i), DPort: 80, Proto: packet.ProtoTCP}
		lanes[k.LaneHash()%4]++
	}
	for w, n := range lanes {
		if n < 4096/8 {
			t.Fatalf("lane %d got %d of 4096 flows — hash badly skewed: %v", w, n, lanes)
		}
	}
}

// TestDeliverBatchWorkersMatchSequential is the netsim-level equivalence
// guard: the same trace through 1-lane and 4-lane batch delivery must
// agree on delivered/dropped counts, report volume, and the merged
// state-bank contents, slot for slot.
func TestDeliverBatchWorkersMatchSequential(t *testing.T) {
	tr := scalingTrace()

	type outcome struct {
		delivered, dropped uint64
		reports            int
		banks              []uint32
	}
	run := func(workers int) outcome {
		net, h1, h2 := workersNet(t, workers, 40)
		net.DeliverBatch(tr.Packets, h1, h2)
		d, dr := net.Stats()
		reports := net.DrainReports()
		var banks []uint32
		for _, b := range net.Node(net.Topo.Switches()[0]).Eng.SnapshotBanks() {
			banks = append(banks, b.Values...)
		}
		return outcome{delivered: d, dropped: dr, reports: len(reports), banks: banks}
	}

	seq, par := run(1), run(4)
	if par.delivered != seq.delivered || par.dropped != seq.dropped {
		t.Fatalf("4 workers: stats %d/%d, sequential %d/%d", par.delivered, par.dropped, seq.delivered, seq.dropped)
	}
	// Mid-window threshold reports are exact at any worker count: every
	// lane reads and writes the one shared bank.
	if par.reports != seq.reports {
		t.Fatalf("4 workers: %d reports, sequential %d", par.reports, seq.reports)
	}
	if len(par.banks) != len(seq.banks) {
		t.Fatalf("4 workers: bank size %d, sequential %d", len(par.banks), len(seq.banks))
	}
	for i := range seq.banks {
		if par.banks[i] != seq.banks[i] {
			t.Fatalf("4 workers: bank slot %d = %d, sequential %d", i, par.banks[i], seq.banks[i])
		}
	}
}

// TestDeliverBatchEpochBarrier asserts window boundaries inside a batch
// roll the epochs exactly as sequential delivery does: a batch spanning
// two windows leaves the second window's counts in the banks (the first
// window's rolled state reads as zero).
func TestDeliverBatchEpochBarrier(t *testing.T) {
	net, h1, h2 := workersNet(t, 4, 1<<30)
	// 100 packets of one flow in window 0, 30 in window 1.
	var pkts []*packet.Packet
	mk := func(ts uint64) *packet.Packet {
		return &packet.Packet{TS: ts, IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 1, Dst: 2},
			TCP: &packet.TCP{SrcPort: 9, DstPort: 80, Flags: packet.FlagSYN}}
	}
	for i := 0; i < 100; i++ {
		pkts = append(pkts, mk(uint64(i)))
	}
	w1 := uint64(100 * time.Millisecond)
	for i := 0; i < 30; i++ {
		pkts = append(pkts, mk(w1+uint64(i)))
	}
	net.DeliverBatch(pkts, h1, h2)
	var max uint32
	for _, b := range net.Node(net.Topo.Switches()[0]).Eng.SnapshotBanks() {
		for _, v := range b.Values {
			if v > max {
				max = v
			}
		}
	}
	if max != 30 {
		t.Fatalf("max bank count after cross-window batch = %d, want 30 (second window only)", max)
	}
}

// TestDeliverBatchZeroAllocSteadyState pins the batch path's allocation
// behavior: once lanes, caches, pools, and report buffers are warm, a
// whole-trace DeliverBatch plus drain allocates nothing, at 1 and at 4
// workers.
func TestDeliverBatchZeroAllocSteadyState(t *testing.T) {
	for _, workers := range []int{1, 4} {
		net, h1, h2 := workersNet(t, workers, 1<<30)
		tr := scalingTrace()
		var reports []dataplane.Report
		for p := 0; p < 2; p++ { // warm: epochs, caches, buffer sizes
			net.DeliverBatch(tr.Packets, h1, h2)
			reports = net.DrainReportsAppend(reports[:0])
		}
		if avg := testing.AllocsPerRun(3, func() {
			net.DeliverBatch(tr.Packets, h1, h2)
			reports = net.DrainReportsAppend(reports[:0])
		}); avg != 0 {
			t.Fatalf("workers=%d: steady-state batch allocs = %v, want 0", workers, avg)
		}
	}
}

// TestConfigWorkerDefaults pins the worker-count resolution: zero uses
// the package default, negatives clamp to one, and the pool cap bounds
// pathological settings.
func TestConfigWorkerDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().Workers; got != DefaultWorkers() {
		t.Fatalf("zero workers resolved to %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	SetDefaultWorkers(3)
	if got := (Config{}).withDefaults().Workers; got != 3 {
		t.Fatalf("SetDefaultWorkers(3) ignored: %d", got)
	}
	SetDefaultWorkers(0)
	if got := (Config{Workers: -5}).withDefaults().Workers; got != 1 {
		t.Fatalf("negative workers resolved to %d, want 1", got)
	}
	if got := (Config{Workers: 10_000}).withDefaults().Workers; got != maxPoolWorkers {
		t.Fatalf("oversized workers resolved to %d, want cap %d", got, maxPoolWorkers)
	}
}

// TestPathCacheBounded floods batch delivery with four times as many
// distinct flow seeds as a lane's path cache may hold: the cache must
// stop at its cap, and the packets that resolved uncached must be
// delivered, counted and reported exactly as per-packet Deliver does.
func TestPathCacheBounded(t *testing.T) {
	pkts := make([]*packet.Packet, 4*maxCachedPaths)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			TS:  1,
			IP:  packet.IPv4{Proto: packet.ProtoTCP, TTL: 64, Src: 0xC0000000 + uint32(i), Dst: 0x0A000000 + uint32(i%8)},
			TCP: &packet.TCP{SrcPort: uint16(i), DstPort: 80, Flags: packet.FlagSYN},
		}
	}
	type outcome struct {
		delivered, dropped uint64
		reports            []dataplane.Report
		banks              [][]uint32
	}
	finish := func(net *Network) (o outcome) {
		o.delivered, o.dropped = net.Stats()
		o.reports = net.DrainReports()
		for _, b := range net.Node(net.Topo.Switches()[0]).Eng.SnapshotBanks() {
			o.banks = append(o.banks, b.Values)
		}
		return o
	}

	batch, h1, h2 := workersNet(t, 1, 40)
	batch.DeliverBatch(pkts, h1, h2)
	if got := len(batch.lanes[0].cache); got != maxCachedPaths {
		t.Fatalf("path cache holds %d entries after %d distinct seeds, want the cap %d", got, len(pkts), maxCachedPaths)
	}
	seq, h1, h2 := workersNet(t, 1, 40)
	for _, pkt := range pkts {
		seq.Deliver(pkt, h1, h2)
	}
	got, want := finish(batch), finish(seq)
	if want.delivered != uint64(len(pkts)) || len(want.reports) == 0 {
		t.Fatalf("sequential run delivered %d of %d packets and reported %d times", want.delivered, len(pkts), len(want.reports))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch delivery past the cache cap: %d delivered, %d dropped, %d reports; sequential %d, %d, %d (or banks differ)",
			got.delivered, got.dropped, len(got.reports), want.delivered, want.dropped, len(want.reports))
	}
}

// TestRebootKeepsLanes holds Reboot to the network's own geometry and
// lane count: a rebooted switch that came back with a one-lane engine
// would run all four delivery workers on lane 0's single-writer flow
// table (Execute falls back to lane 0 for a lane it does not have), which
// -race reports. The reinstalled query must also report what a one-lane
// network reports.
func TestRebootKeepsLanes(t *testing.T) {
	tr := scalingTrace()
	run := func(workers int) []uint64 {
		net, h1, h2 := workersNet(t, workers, 40)
		id := net.Topo.Switches()[0]
		before := net.Node(id)
		dp, layout := before.DP, before.Layout
		if err := net.Reboot(id); err != nil {
			t.Fatal(err)
		}
		node := net.Node(id)
		if node.DP != dp || node.Layout == layout || dp.Monitor != dataplane.Program(node.Eng) {
			t.Fatalf("%d workers: Reboot must keep the data plane and replace layout and engine", workers)
		}
		if got := node.Eng.InstalledCount(); got != 0 {
			t.Fatalf("%d workers: rebooted engine holds %d queries", workers, got)
		}
		// The reinstall below needs the network's 1<<16 registers a bank.
		o := compiler.AllOpts()
		o.QID = 1
		o.Width = 1 << 14
		installOn(t, net, query.Q1(40), o, []int{id})
		net.DeliverBatch(tr.Packets, h1, h2)
		// Which packet carries a key over the threshold depends on how the
		// lanes interleave; which keys cross in which window does not.
		var flagged []uint64
		for _, r := range net.DrainReports() {
			flagged = append(flagged, r.TS/uint64(net.Cfg.Window)<<32|r.Keys[fields.DstIP])
		}
		sort.Slice(flagged, func(i, j int) bool { return flagged[i] < flagged[j] })
		return flagged
	}
	seq, par := run(1), run(4)
	if len(seq) == 0 {
		t.Fatal("the SYN flood raised no report on the rebooted one-lane switch")
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("4 lanes after Reboot flag (window<<32|victim) %x, 1 lane %x", par, seq)
	}
}
