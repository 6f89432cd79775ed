package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// ScalingRow is one worker count's throughput measurement.
type ScalingRow struct {
	Workers      int
	NsPerPkt     float64
	PktsPerSec   float64
	Speedup      float64 // vs the first (baseline) worker count
	AllocsPerPkt float64
	Mallocs      uint64 // the process's mallocs over the scalingPasses timed passes
}

// ScalingResult is the workers-vs-throughput curve of the sharded
// delivery path: the same fully-loaded switch and trace as Throughput,
// driven through DeliverBatch at increasing lane counts.
type ScalingResult struct {
	GOMAXPROCS int
	Rows       []ScalingRow
}

func (r *ScalingResult) String() string {
	t := &table{header: []string{"workers", "ns/pkt", "pkts/sec", "speedup", "allocs/pkt"}}
	for _, row := range r.Rows {
		t.add(fmt.Sprint(row.Workers), fmt.Sprintf("%.1f", row.NsPerPkt),
			fmt.Sprintf("%.0f", row.PktsPerSec), fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.3f", row.AllocsPerPkt))
	}
	return t.String() + fmt.Sprintf("(GOMAXPROCS=%d)\n", r.GOMAXPROCS)
}

// Metrics exposes the curve for machine-readable output (-json).
func (r *ScalingResult) Metrics() map[string]float64 {
	m := map[string]float64{"gomaxprocs": float64(r.GOMAXPROCS)}
	for _, row := range r.Rows {
		m[fmt.Sprintf("pkts_sec_w%d", row.Workers)] = row.PktsPerSec
		m[fmt.Sprintf("speedup_w%d", row.Workers)] = row.Speedup
		m[fmt.Sprintf("allocs_pkt_w%d", row.Workers)] = row.AllocsPerPkt
	}
	return m
}

// ThroughputScaling measures batch-delivery throughput across worker
// counts. Each point builds a fresh single-switch network with
// Config.Workers lanes, installs all nine catalog queries, warms two
// full passes (settling epochs, caches, and buffer sizes), then times
// whole-trace DeliverBatch passes. Speedup is relative to the first
// worker count; on hosts with fewer cores than workers the curve
// flattens rather than climbs.
func ThroughputScaling(flows int, dur time.Duration, workers []int) *ScalingResult {
	if flows == 0 {
		flows = 2000
	}
	if dur == 0 {
		dur = 400 * time.Millisecond
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	res := &ScalingResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range workers {
		row := scalingPoint(flows, dur, w)
		if len(res.Rows) == 0 {
			row.Speedup = 1
		} else {
			row.Speedup = row.PktsPerSec / res.Rows[0].PktsPerSec
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// scalingPasses is how many whole-trace passes a point times.
const scalingPasses = 3

func scalingPoint(flows int, dur time.Duration, workers int) ScalingRow {
	topo, h1, h2 := topology.Linear(1)
	net, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 16, Workers: workers})
	if err != nil {
		panic(err)
	}
	sw := net.Node(topo.Switches()[0])
	for i, q := range query.All() {
		o := compiler.AllOpts()
		o.QID = i + 1
		o.Width = 1 << 12
		p, err := compiler.Compile(q, o)
		if err != nil {
			panic(err)
		}
		if err := sw.Eng.Install(p); err != nil {
			panic(err)
		}
	}
	tr := trace.Generate(trace.Config{Seed: 99, Flows: flows, Duration: dur},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 200})
	pkts := tr.Packets

	var reports []dataplane.Report
	for p := 0; p < 2; p++ { // warm: epochs, caches, buffer sizes
		net.DeliverBatch(pkts, h1, h2)
		reports = net.DrainReportsAppend(reports[:0])
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for p := 0; p < scalingPasses; p++ {
		net.DeliverBatch(pkts, h1, h2)
		reports = net.DrainReportsAppend(reports[:0])
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := scalingPasses * len(pkts)
	mallocs := after.Mallocs - before.Mallocs
	return ScalingRow{
		Workers:      workers,
		NsPerPkt:     float64(elapsed.Nanoseconds()) / float64(n),
		PktsPerSec:   float64(n) / elapsed.Seconds(),
		AllocsPerPkt: float64(mallocs) / float64(n),
		Mallocs:      mallocs,
	}
}
