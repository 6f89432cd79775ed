package newton

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the corresponding result via the experiment
// harness and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. cmd/newton-bench prints the full
// tables; these benchmarks track the numbers over time.

import (
	"fmt"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/baselines"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/experiments"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// throughputNet builds the standard throughput workload: one switch with
// all nine queries installed and a pre-generated evaluation trace, so the
// benchmark loop measures nothing but the per-packet fast path. workers
// sizes the delivery lanes (0 = package default).
func throughputNet(b *testing.B, workers int) (*netsim.Network, []int, int, int, []*trace.Trace) {
	b.Helper()
	topo, h1, h2 := topology.Linear(1)
	net, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 16, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	sw := net.Node(topo.Switches()[0])
	for i, q := range query.All() {
		o := compiler.AllOpts()
		o.QID = i + 1
		o.Width = 1 << 12
		p, err := compiler.Compile(q, o)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Eng.Install(p); err != nil {
			b.Fatal(err)
		}
	}
	tr := trace.Generate(trace.Config{Seed: 99, Flows: 2000, Duration: 400 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 200})
	return net, topo.Switches(), h1, h2, []*trace.Trace{tr}
}

// BenchmarkPacketThroughput is the headline fast-path number: packets per
// second through one fully-loaded Newton switch (all nine queries), with
// allocations per packet on the steady-state path. Reports drain through
// the append form once per trace pass so the loop — including the drain —
// runs at exactly zero allocations per packet.
func BenchmarkPacketThroughput(b *testing.B) {
	net, sws, _, _, trs := throughputNet(b, 1)
	pkts := trs[0].Packets
	// Warm twice: the first pass settles register epochs and caches, the
	// second grows the report buffers to steady size.
	var reports []dataplane.Report
	for p := 0; p < 2; p++ {
		for _, pkt := range pkts {
			net.DeliverPath(pkt, sws)
		}
		reports = net.DrainReportsAppend(reports[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pkts)
		net.DeliverPath(pkts[k], sws)
		if k == len(pkts)-1 {
			reports = net.DrainReportsAppend(reports[:0])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
	net.DrainReports()
}

// BenchmarkPacketThroughputFlows is the flow-cardinality axis of the
// headline: the same nine-query switch path, fed distinct 5-tuples
// cycled round-robin, so every packet of a row with more flows than the
// lane's flow table holds is a dispatch miss. Per-packet cost and
// allocations must not depend on the row.
func BenchmarkPacketThroughputFlows(b *testing.B) {
	for _, row := range []struct {
		name  string
		flows int
	}{{"1k", 1 << 10}, {"32k", 1 << 15}, {"64k", 1 << 16}, {"1M", 1 << 20}} {
		b.Run("flows="+row.name, func(b *testing.B) {
			net, sws, _, _, _ := throughputNet(b, 1)
			tcp := &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoTCP, TTL: 64}, TCP: &packet.TCP{}}
			udp := &packet.Packet{TS: 1, IP: packet.IPv4{Proto: packet.ProtoUDP, TTL: 64}, UDP: &packet.UDP{DstPort: 53}}
			// flow k's 5-tuple: a benign-looking mix (one SYN and one DNS
			// query in eight, the rest established TCP) over 256 servers;
			// the odd multiplier keeps sources distinct.
			send := func(k int) {
				src, dst := uint32(k)*2654435761, 0x0A000000|uint32(k>>3&0xFF)
				sport := uint16(1024 + k%50000)
				pkt := tcp
				tcp.TCP.SrcPort = sport
				switch k & 7 {
				case 0:
					tcp.TCP.Flags, tcp.TCP.DstPort = packet.FlagSYN, 443
				case 1:
					pkt = udp
					udp.UDP.SrcPort = sport
				default:
					tcp.TCP.Flags, tcp.TCP.DstPort = packet.FlagACK|packet.FlagPSH, 80
				}
				pkt.IP.Src, pkt.IP.Dst = src, dst
				net.DeliverPath(pkt, sws)
			}
			var reports []dataplane.Report
			for k := 0; k < 2*row.flows; k++ { // warm: tables, epochs, report buffers
				send(k % row.flows)
			}
			reports = net.DrainReportsAppend(reports[:0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % row.flows
				send(k)
				if k == row.flows-1 {
					reports = net.DrainReportsAppend(reports[:0])
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
			net.DrainReports()
		})
	}
}

// BenchmarkPacketThroughputBatch drives the same workload through the
// parallel batch-delivery path (flow-sharded worker lanes, per-lane
// report sinks) — the path the experiment harness uses. On multi-core
// hosts this scales with the lane count; per-flow ordering is preserved.
func BenchmarkPacketThroughputBatch(b *testing.B) {
	benchBatchWorkers(b, 0)
}

// BenchmarkPacketThroughputWorkers is the scaling axis of the batch
// path: the same workload at fixed lane counts 1, 2, 4, and 8. On a
// single-core host the curve is flat; the CI smoke test gates on it only
// when enough cores are present.
func BenchmarkPacketThroughputWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchBatchWorkers(b, w)
		})
	}
}

func benchBatchWorkers(b *testing.B, workers int) {
	net, _, h1, h2, trs := throughputNet(b, workers)
	pkts := trs[0].Packets
	var reports []dataplane.Report
	for p := 0; p < 2; p++ { // warm: epochs, caches, buffer sizes
		net.DeliverBatch(pkts, h1, h2)
		reports = net.DrainReportsAppend(reports[:0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		chunk := pkts
		if rem := b.N - done; rem < len(chunk) {
			chunk = chunk[:rem]
		}
		net.DeliverBatch(chunk, h1, h2)
		done += len(chunk)
		reports = net.DrainReportsAppend(reports[:0])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
	net.DrainReports()
}

// BenchmarkTable3Resources regenerates Table 3 (per-stage, per-module,
// per-primitive resource utilization).
func BenchmarkTable3Resources(b *testing.B) {
	var compactCrossbar float64
	for i := 0; i < b.N; i++ {
		r := experiments.Table3()
		compactCrossbar = r.PerStageCompact[0]
	}
	b.ReportMetric(compactCrossbar*100, "compact-crossbar-%")
}

// BenchmarkFig10Interruption regenerates Fig. 10 (Sonata outage vs
// Newton's uninterrupted updates).
func BenchmarkFig10Interruption(b *testing.B) {
	var outage time.Duration
	var newtonDropped uint64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10Interruption(1000, 30, 20000)
		outage = r.SonataOutage
		newtonDropped = r.NewtonDropped
	}
	b.ReportMetric(outage.Seconds(), "sonata-outage-s")
	b.ReportMetric(float64(newtonDropped), "newton-dropped-pkts")
}

// BenchmarkFig11OperationDelay regenerates Fig. 11 (install/remove
// latency of the nine queries).
func BenchmarkFig11OperationDelay(b *testing.B) {
	var q1Avg, maxAvg time.Duration
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11OperationDelay(100)
		q1Avg = r.Rows[0].InstallAvg
		for _, row := range r.Rows {
			if row.InstallAvg > maxAvg {
				maxAvg = row.InstallAvg
			}
		}
	}
	b.ReportMetric(float64(q1Avg)/1e6, "q1-install-ms")
	b.ReportMetric(float64(maxAvg)/1e6, "max-install-ms")
}

// BenchmarkFig12Overhead regenerates Fig. 12 (monitoring overhead of six
// systems on two traces).
func BenchmarkFig12Overhead(b *testing.B) {
	var newton, turbo float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12Overhead(2000, 400*time.Millisecond)
		for _, row := range r.Rows {
			if row.Trace != "CAIDA" {
				continue
			}
			switch row.System {
			case baselines.Newton:
				newton = row.Overhead
			case baselines.TurboFlow:
				turbo = row.Overhead
			}
		}
	}
	b.ReportMetric(newton, "newton-msgs/pkt")
	b.ReportMetric(turbo/newton, "turboflow-vs-newton-x")
}

// BenchmarkFig13CQE regenerates Fig. 13 (network-wide overhead vs hop
// count).
func BenchmarkFig13CQE(b *testing.B) {
	var newtonGrowth, sonataGrowth float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13CQEOverhead(5)
		first := map[baselines.System]int{}
		last := map[baselines.System]int{}
		for _, row := range r.Rows {
			if row.Hops == 1 {
				first[row.System] = row.Messages
			}
			if row.Hops == 5 {
				last[row.System] = row.Messages
			}
		}
		newtonGrowth = float64(last[baselines.Newton]) / float64(first[baselines.Newton])
		sonataGrowth = float64(last[baselines.Sonata]) / float64(first[baselines.Sonata])
	}
	b.ReportMetric(newtonGrowth, "newton-5hop-growth-x")
	b.ReportMetric(sonataGrowth, "sonata-5hop-growth-x")
}

// BenchmarkFig14Accuracy regenerates Fig. 14 (accuracy vs registers,
// Sonata vs Newton_h).
func BenchmarkFig14Accuracy(b *testing.B) {
	var sonata256, newton3x256 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14Accuracy([]uint32{256, 1024, 4096}, 3)
		for _, row := range r.Rows {
			if row.Registers != 256 {
				continue
			}
			switch row.System {
			case "Sonata":
				sonata256 = row.Accuracy
			case "Newton_3":
				newton3x256 = row.Accuracy
			}
		}
	}
	b.ReportMetric(sonata256, "sonata-acc@256")
	b.ReportMetric(newton3x256, "newton3-acc@256")
	if sonata256 > 0 {
		b.ReportMetric(newton3x256/sonata256, "improvement-x")
	}
}

// BenchmarkFig15Compilation regenerates Fig. 15 / Fig. 7 (compilation
// optimization across the nine queries).
func BenchmarkFig15Compilation(b *testing.B) {
	var minMod, minStg float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15Compilation()
		minMod, minStg = r.MinModuleReduction, r.MinStageReduction
	}
	b.ReportMetric(minMod*100, "min-module-reduction-%")
	b.ReportMetric(minStg*100, "min-stage-reduction-%")
}

// BenchmarkFig16Multiplexing regenerates Fig. 16 (concurrent Q4 copies).
func BenchmarkFig16Multiplexing(b *testing.B) {
	var pRules100, sModules100 int
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16Multiplexing([]int{1, 100})
		pRules100 = r.Rows[1].PNewtonRules
		sModules100 = r.Rows[1].SNewtonModules
	}
	b.ReportMetric(float64(pRules100), "p-newton-rules@100")
	b.ReportMetric(float64(sModules100), "s-newton-modules@100")
}

// BenchmarkFig17Placement regenerates Fig. 17 (network-wide placement of
// Q4 on fat-trees and the ISP backbone).
func BenchmarkFig17Placement(b *testing.B) {
	var avgAtScale float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17Placement()
		avgAtScale = r.B[len(r.B)-1].Avg
	}
	b.ReportMetric(avgAtScale, "avg-entries-largest-fattree")
}
