// Package netsim simulates a network of Newton-enabled programmable
// switches: every switch of a topology gets a pipeline with the module
// layout loaded, packets walk ECMP forwarding paths hop by hop, result
// snapshot headers carry cross-switch query state, register windows roll
// on a shared virtual clock, and switch outages (the Sonata reboot
// model) drop traffic for their duration.
package netsim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/topology"
)

// Config sizes each switch in the network.
type Config struct {
	// Stages is the module stage count per pipeline (default 12, the
	// paper's Tofino).
	Stages int
	// ArraySize is each state bank's register count (default 4096).
	ArraySize uint32
	// Window is the query evaluation window (default 100 ms).
	Window time.Duration
	// Workers is the delivery worker (lane) count for DeliverBatch:
	// packets shard across lanes by symmetric flow hash, each lane
	// owning private engine state (flow table, memos, counters).
	// 0 uses the package default (DefaultWorkers); 1 forces sequential
	// delivery.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Stages == 0 {
		c.Stages = dataplane.TofinoStages
	}
	if c.ArraySize == 0 {
		c.ArraySize = 4096
	}
	if c.Window == 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > maxPoolWorkers {
		c.Workers = maxPoolWorkers
	}
	return c
}

// defaultWorkers is the process-wide lane count used when Config.Workers
// is zero. Read/written with atomics so bench harnesses can set it while
// other goroutines build networks.
var defaultWorkers int64

// DefaultWorkers returns the default delivery worker count: the last
// SetDefaultWorkers value, or GOMAXPROCS.
func DefaultWorkers() int {
	if w := atomic.LoadInt64(&defaultWorkers); w > 0 {
		return int(w)
	}
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// SetDefaultWorkers overrides the default delivery worker count for
// subsequently built networks (0 restores GOMAXPROCS).
func SetDefaultWorkers(n int) { atomic.StoreInt64(&defaultWorkers, int64(n)) }

// Node is one switch of the network: its data plane, module layout, and
// engine.
type Node struct {
	ID     int
	DP     *dataplane.Switch
	Layout *modules.Layout
	Eng    *modules.Engine
}

// Network is the simulated deployment.
type Network struct {
	Topo *topology.Topology
	Cfg  Config

	nodes map[int]*Node

	// nodesByID is the dense form of nodes (topology IDs are small
	// sequential ints): the per-hop switch lookup of the packet path is
	// an indexed load instead of a map probe.
	nodesByID []*Node

	clock     uint64
	nextEpoch uint64

	outageFrom, outageTo map[int]uint64

	// delivered/dropped count the rare non-lane paths (one-off Deliver
	// route misses, worker route misses) with shared atomics; the hot
	// delivery paths count into laneStats. Stats sums both.
	delivered, dropped uint64

	// workers is the delivery lane count, fixed at New; lanes holds each
	// worker's persistent delivery state and laneStats its padded
	// counters. runLane is the one closure handed to the worker pool
	// (allocated once so steady-state segments allocate nothing), with
	// segSrc/segDst carrying the current segment's endpoints to it.
	workers        int
	lanes          []*netLane
	laneStats      []laneStat
	runLane        func(lane int)
	segSrc, segDst int
	batchWG        sync.WaitGroup

	// Deferred, when set, receives packets that exit the network still
	// carrying a result snapshot — a query whose partitions outnumber
	// the path's Newton hops. The software analyzer continues the query
	// from the snapshot (§5.2); see analyzer.DeferredTail. The hook runs
	// before the snapshot is stripped.
	Deferred func(pkt *packet.Packet)

	// deferredMu serializes Deferred calls from batch workers.
	deferredMu sync.Mutex

	// batchReports accumulates the merged per-worker report buffers of
	// DeliverBatch until DrainReports.
	batchReports []dataplane.Report
}

// netLane is one delivery worker's persistent state: its execution
// context, report sink, resolved-path cache, and segment shard buffer.
// All of it is reused across segments and batches, so the steady-state
// parallel path allocates nothing.
type netLane struct {
	ctx  *dataplane.Context
	sink []dataplane.Report
	// cache memoizes resolved ECMP paths by flow seed; valid for the
	// (src, dst) endpoint pair it was filled under.
	cache    map[uint64]cachedPath
	src, dst int
	shard    []*packet.Packet
}

// laneStat is one lane's delivery counters, padded to a cacheline so
// parallel workers never false-share; single-writer, read atomically.
type laneStat struct {
	delivered, dropped uint64
	_                  [6]uint64
}

// bumpStat increments a single-writer counter without a LOCK prefix
// while keeping concurrent atomic readers exact.
func bumpStat(p *uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+1)
}

// New builds a network with a Newton switch per topology switch node.
func New(topo *topology.Topology, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	n := &Network{
		Topo: topo, Cfg: cfg,
		nodes:      map[int]*Node{},
		nextEpoch:  uint64(cfg.Window),
		outageFrom: map[int]uint64{}, outageTo: map[int]uint64{},
		workers: cfg.Workers,
	}
	for _, id := range topo.Switches() {
		dp := dataplane.NewSwitch(topo.Node(id).Name, cfg.Stages, modules.StageCapacity())
		dp.SetLanes(cfg.Workers)
		if err := dp.AddRoute(0, 0, 1); err != nil {
			return nil, err
		}
		node := &Node{ID: id, DP: dp}
		n.nodes[id] = node
		if err := n.Reboot(id); err != nil {
			return nil, err
		}
		if id >= len(n.nodesByID) {
			grown := make([]*Node, id+1)
			copy(grown, n.nodesByID)
			n.nodesByID = grown
		}
		n.nodesByID[id] = node
	}
	n.lanes = make([]*netLane, cfg.Workers)
	for w := range n.lanes {
		ln := &netLane{cache: map[uint64]cachedPath{}, src: -1, dst: -1}
		ln.ctx = dataplane.NewBatchContext(&ln.sink, w)
		n.lanes[w] = ln
	}
	n.laneStats = make([]laneStat, cfg.Workers)
	n.runLane = func(w int) {
		ln := n.lanes[w]
		src, dst := n.segSrc, n.segDst
		for _, pkt := range ln.shard {
			n.deliverCached(pkt, src, dst, ln.ctx, ln.cache)
		}
	}
	return n, nil
}

// Reboot gives a switch an empty layout and engine of the network's
// geometry and lane count, keeping its data plane (routes, lanes,
// undrained reports): the switch lost every installed query and every
// register, and nothing else. It must not run beside a delivery.
func (n *Network) Reboot(id int) error {
	node := n.nodes[id]
	if node == nil {
		return fmt.Errorf("netsim: no switch node %d", id)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, n.Cfg.Stages, n.Cfg.ArraySize)
	if err != nil {
		return fmt.Errorf("netsim: switch %s: %w", node.DP.ID, err)
	}
	eng := modules.NewEngine(layout)
	eng.SetWorkers(n.workers)
	node.Layout, node.Eng = layout, eng
	node.DP.Monitor = eng
	return nil
}

// Node returns the switch node with the given topology ID.
func (n *Network) Node(id int) *Node { return n.nodes[id] }

// Nodes returns all switch nodes keyed by topology ID.
func (n *Network) Nodes() map[int]*Node { return n.nodes }

// Clock returns the current virtual time in nanoseconds.
func (n *Network) Clock() uint64 { return n.clock }

// AdvanceTo moves the virtual clock forward, rolling register windows at
// each boundary it crosses. The roll loop lives in its own method so
// AdvanceTo itself inlines into the per-packet delivery path.
func (n *Network) AdvanceTo(ts uint64) {
	if ts < n.clock {
		return
	}
	if ts >= n.nextEpoch {
		n.rollEpochs(ts)
	}
	n.clock = ts
}

func (n *Network) rollEpochs(ts uint64) {
	for ts >= n.nextEpoch {
		for _, node := range n.nodes {
			node.Eng.RollEpoch()
		}
		n.nextEpoch += uint64(n.Cfg.Window)
	}
}

// SetOutage takes a switch down for [from, until) of virtual time — the
// Sonata reboot model's lever.
func (n *Network) SetOutage(sw int, from, until uint64) {
	n.outageFrom[sw] = from
	n.outageTo[sw] = until
}

// inOutageAt checks an outage against an explicit timestamp — the batch
// path evaluates outages per packet without moving the shared clock.
func (n *Network) inOutageAt(sw int, ts uint64) bool {
	to, ok := n.outageTo[sw]
	return ok && ts >= n.outageFrom[sw] && ts < to
}

// flowSeed derives the ECMP seed from the packet's 5-tuple. It is
// FNV-64a over the 13-byte key — computed inline so the per-packet path
// does not allocate a hash object.
func flowSeed(p *packet.Packet) uint64 {
	k := p.Flow()
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(k.Src>>24)) * prime64
	h = (h ^ uint64(k.Src>>16)&0xFF) * prime64
	h = (h ^ uint64(k.Src>>8)&0xFF) * prime64
	h = (h ^ uint64(k.Src)&0xFF) * prime64
	h = (h ^ uint64(k.Dst>>24)) * prime64
	h = (h ^ uint64(k.Dst>>16)&0xFF) * prime64
	h = (h ^ uint64(k.Dst>>8)&0xFF) * prime64
	h = (h ^ uint64(k.Dst)&0xFF) * prime64
	h = (h ^ uint64(k.SPort>>8)) * prime64
	h = (h ^ uint64(k.SPort)&0xFF) * prime64
	h = (h ^ uint64(k.DPort>>8)) * prime64
	h = (h ^ uint64(k.DPort)&0xFF) * prime64
	h = (h ^ uint64(k.Proto)) * prime64
	return h
}

// Deliver routes one packet from srcHost to dstHost along its ECMP path
// and processes it at every switch. It returns the switch path taken and
// whether the packet reached the destination. A switch in outage drops
// the packet.
func (n *Network) Deliver(pkt *packet.Packet, srcHost, dstHost int) ([]int, bool) {
	path := n.Topo.Path(srcHost, dstHost, flowSeed(pkt))
	if path == nil {
		atomic.AddUint64(&n.dropped, 1)
		return nil, false
	}
	sw := n.Topo.SwitchPath(path)
	ok := n.DeliverPath(pkt, sw)
	return sw, ok
}

// DeliverPath processes a packet along an explicit switch path.
func (n *Network) DeliverPath(pkt *packet.Packet, switches []int) bool {
	n.AdvanceTo(pkt.TS)
	return n.deliverOn(pkt, switches, nil)
}

// deliverOn walks a packet along a switch path without touching the
// shared clock. ctx, when non-nil, is the caller-owned (batch worker)
// execution context; nil uses each switch's sequential context.
//
// Delivery counters go to the context's lane slot: within a batch each
// lane is driven by exactly one worker, and the non-batch paths (nil
// ctx) are caller-serialized on lane 0, so every slot is single-writer.
func (n *Network) deliverOn(pkt *packet.Packet, switches []int, ctx *dataplane.Context) bool {
	st := &n.laneStats[0]
	if ctx != nil && ctx.Lane > 0 && ctx.Lane < len(n.laneStats) {
		st = &n.laneStats[ctx.Lane]
	}
	pkt.SP = nil // hosts never send result snapshots
	for _, id := range switches {
		var node *Node
		if id >= 0 && id < len(n.nodesByID) {
			node = n.nodesByID[id]
		}
		if node == nil {
			bumpStat(&st.dropped)
			return false
		}
		if len(n.outageTo) != 0 && n.inOutageAt(id, pkt.TS) {
			bumpStat(&st.dropped)
			return false
		}
		var forwarded bool
		if ctx != nil {
			_, forwarded = node.DP.ProcessCtx(pkt, ctx)
		} else {
			_, forwarded = node.DP.Process(pkt)
		}
		if !forwarded {
			bumpStat(&st.dropped)
			return false
		}
	}
	if pkt.SP != nil {
		// The last Newton hop normally strips the snapshot before the
		// host; a leftover means the query's tail never ran on this path
		// — §5.2's fallback hands the execution status to the software
		// analyzer before the header is removed.
		if n.Deferred != nil {
			n.deferredMu.Lock()
			n.Deferred(pkt)
			n.deferredMu.Unlock()
		}
		pkt.SP = nil
	}
	bumpStat(&st.delivered)
	return true
}

// minParallelSegment is the segment size below which DeliverBatch stays
// sequential (goroutine fan-out would cost more than it saves).
const minParallelSegment = 64

// DeliverBatch delivers a time-ordered packet batch from srcHost to
// dstHost, parallelized across flows. Packets are sharded over the
// network's delivery lanes (Config.Workers) by symmetric flow hash, so
// both directions of a flow stay in order on one lane while distinct
// flows proceed concurrently. Each lane mirrors reports into its own
// persistent sink (merged into DrainReports's output), and the batch is
// split at query-window boundaries: all packets of a window are
// processed, the lanes join at a barrier, the register epochs roll, and
// the next window begins — exactly the epoch discipline of sequential
// delivery.
//
// Switch state stays exact under parallelism: tables are read through
// immutable copy-on-write snapshots and every register ALU transaction
// is one linearizable atomic operation, so windowed counts, delivery
// counters, and report volumes match sequential delivery. Query installs/removals must not
// run concurrently with a batch.
func (n *Network) DeliverBatch(pkts []*packet.Packet, srcHost, dstHost int) {
	workers := n.workers
	start := 0
	for start < len(pkts) {
		// Extend the segment until a packet crosses the next window
		// boundary; that packet starts the next segment after the rolls.
		end := start
		for end < len(pkts) && pkts[end].TS < n.nextEpoch {
			end++
		}
		if end == start {
			n.AdvanceTo(pkts[start].TS) // rolls every boundary crossed
			continue
		}
		n.deliverSegment(pkts[start:end], srcHost, dstHost, workers)
		if ts := pkts[end-1].TS; ts > n.clock {
			n.clock = ts
		}
		start = end
	}
}

// deliverSegment processes one window's worth of packets across the
// delivery lanes. Lane state (context, path cache, shard buffer, report
// sink) persists on the Network and the worker goroutines live in the
// process-wide pool, so the steady-state segment allocates nothing.
func (n *Network) deliverSegment(pkts []*packet.Packet, srcHost, dstHost, workers int) {
	if workers == 1 || len(pkts) < minParallelSegment {
		ln := n.lanes[0]
		n.laneCache(ln, srcHost, dstHost)
		for _, pkt := range pkts {
			n.deliverCached(pkt, srcHost, dstHost, ln.ctx, ln.cache)
		}
		n.collectSinks(n.lanes[:1])
		return
	}

	// Shard by symmetric flow hash: one lane owns all packets of a flow
	// (both directions), keeping per-flow order and lane-private engine
	// state coherent.
	lanes := n.lanes[:workers]
	for _, ln := range lanes {
		ln.shard = ln.shard[:0]
		n.laneCache(ln, srcHost, dstHost)
	}
	for _, pkt := range pkts {
		w := int(pkt.Flow().LaneHash() % uint64(workers))
		lanes[w].shard = append(lanes[w].shard, pkt)
	}
	n.segSrc, n.segDst = srcHost, dstHost
	poolDo(workers, &n.batchWG, n.runLane)
	n.collectSinks(lanes)
}

// laneCache readies a lane's ECMP path cache for the (src, dst) pair,
// flushing it when the endpoints change (entries are only valid for the
// pair they were resolved under).
func (n *Network) laneCache(ln *netLane, src, dst int) {
	if ln.src != src || ln.dst != dst {
		clear(ln.cache)
		ln.src, ln.dst = src, dst
	}
}

// collectSinks moves the lanes' mirrored reports into batchReports,
// keeping the sink backing arrays for reuse.
func (n *Network) collectSinks(lanes []*netLane) {
	for _, ln := range lanes {
		if len(ln.sink) != 0 {
			n.batchReports = append(n.batchReports, ln.sink...)
			ln.sink = ln.sink[:0]
		}
	}
}

// cachedPath is one resolved ECMP path; ok is false when the topology
// has no route for the flow.
type cachedPath struct {
	sw []int
	ok bool
}

// maxCachedPaths bounds a lane's path cache. A full cache stays as it
// is and later new seeds resolve uncached, so a spoofed flood costs a
// path resolution per packet but no memory.
const maxCachedPaths = 1 << 13

// deliverCached delivers one packet, resolving its ECMP switch path
// through a per-caller cache keyed by flow seed (the seed fully
// determines the path for fixed endpoints).
func (n *Network) deliverCached(pkt *packet.Packet, srcHost, dstHost int, ctx *dataplane.Context, cache map[uint64]cachedPath) {
	seed := flowSeed(pkt)
	cp, hit := cache[seed]
	if !hit {
		if path := n.Topo.Path(srcHost, dstHost, seed); path != nil {
			cp = cachedPath{sw: n.Topo.SwitchPath(path), ok: true}
		}
		if len(cache) < maxCachedPaths {
			cache[seed] = cp
		}
	}
	if !cp.ok {
		atomic.AddUint64(&n.dropped, 1)
		return
	}
	n.deliverOn(pkt, cp.sw, ctx)
}

// DrainReports collects and clears mirrored reports from every switch
// and from completed batches.
func (n *Network) DrainReports() []dataplane.Report {
	out := n.batchReports
	n.batchReports = nil
	for _, node := range n.nodes {
		out = append(out, node.DP.DrainReports()...)
	}
	return out
}

// DrainReportsAppend appends mirrored reports from completed batches and
// every switch to dst and clears them, reusing all internal buffers —
// the zero-allocation form of DrainReports for steady-state loops.
func (n *Network) DrainReportsAppend(dst []dataplane.Report) []dataplane.Report {
	dst = append(dst, n.batchReports...)
	n.batchReports = n.batchReports[:0]
	for _, node := range n.nodes {
		dst = node.DP.DrainReportsAppend(dst)
	}
	return dst
}

// Stats returns network-wide delivery counters: the shared slow-path
// atomics plus every lane's single-writer slot.
func (n *Network) Stats() (delivered, dropped uint64) {
	delivered = atomic.LoadUint64(&n.delivered)
	dropped = atomic.LoadUint64(&n.dropped)
	for i := range n.laneStats {
		delivered += atomic.LoadUint64(&n.laneStats[i].delivered)
		dropped += atomic.LoadUint64(&n.laneStats[i].dropped)
	}
	return delivered, dropped
}

// ResetStats zeroes the delivery counters (between experiment phases).
func (n *Network) ResetStats() {
	atomic.StoreUint64(&n.delivered, 0)
	atomic.StoreUint64(&n.dropped, 0)
	for i := range n.laneStats {
		atomic.StoreUint64(&n.laneStats[i].delivered, 0)
		atomic.StoreUint64(&n.laneStats[i].dropped, 0)
	}
}
