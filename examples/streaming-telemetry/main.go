// Streaming telemetry: push-based export and the network-wide merging
// analyzer.
//
// Three switch agents share one heavy-hitter query via key sharding
// (§5.1): each switch owns a third of the destination-IP key space, so
// every key's counters live on exactly one switch. Instead of the
// controller polling each agent, the agents stream their mirrored
// reports and epoch-boundary sketch snapshots to a standalone analyzer
// service over TCP, which sums the per-switch Count-Min banks into a
// single network-wide sketch, deduplicates threshold alerts, and feeds
// the controller's Collect path.
//
// Run with: go run ./examples/streaming-telemetry
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
)

func main() {
	// --- Analyzer side: the merging service, listening for agent streams.
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	svcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go svc.Serve(svcLn)
	fmt.Printf("analyzer service ingesting telemetry on %s\n", svcLn.Addr())

	// --- Switch side: three agents, each serving a control channel and
	// pushing telemetry to the analyzer.
	names := []string{"edge1", "edge2", "edge3"}
	clients := map[string]*rpc.Client{}
	var switches []*dataplane.Switch
	var exporters []*telemetry.Exporter
	for _, name := range names {
		layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<15)
		if err != nil {
			log.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		sw := dataplane.NewSwitch(name, 16, modules.StageCapacity())
		if err := sw.AddRoute(0, 0, 1); err != nil {
			log.Fatal(err)
		}
		sw.Monitor = eng
		switches = append(switches, sw)

		exp, err := telemetry.Dial(svcLn.Addr().String(), telemetry.ExporterConfig{
			SwitchID: name, Policy: telemetry.PolicyBlock,
		})
		if err != nil {
			log.Fatal(err)
		}
		exporters = append(exporters, exp)

		agent := rpc.NewAgent(sw, eng)
		exp.AttachAgent(agent, eng) // controller epoch ticks push snapshots
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go agent.Serve(ln)

		client, err := rpc.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		clients[name] = client
	}

	// --- Controller side: installs one query sharded across the three
	// switches and reads results from the push stream, never polling.
	ctl := controller.NewRemote(clients, 7)
	ctl.AttachTelemetry(svc)

	q, err := query.Parse("syn_flood_watch",
		"filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 40)")
	if err != nil {
		log.Fatal(err)
	}
	qid, delay, err := ctl.Deploy(0, controller.Want{Query: q, Width: 1 << 12, Targets: names, Sharded: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed %q sharded over %d switches in %v\n",
		q.Name, len(names), delay.Round(time.Microsecond))

	// Replicate the traffic to every switch: sharding makes each switch
	// update only the keys it owns, so the per-switch sketches partition
	// the key space and their sum is the network-wide sketch.
	victim := uint32(0x0A000042)
	tr := trace.Generate(trace.Config{Seed: 5, Flows: 200, Duration: 300 * time.Millisecond},
		trace.SYNFlood{Victim: victim, Packets: 600})
	window := uint64(q.Window)
	next := window
	ticks := 0
	tick := func() {
		for i, sw := range switches {
			exporters[i].Export(sw.DrainReports())
		}
		if err := ctl.Tick(); err != nil { // snapshots push before the roll
			log.Fatal(err)
		}
		ticks++
	}
	for _, pkt := range tr.Packets {
		for pkt.TS >= next {
			tick()
			next += window
		}
		for _, sw := range switches {
			sw.Process(pkt)
		}
	}
	tick()

	// Drain the streams and prove the block policy lost nothing.
	for i, exp := range exporters {
		if err := exp.Flush(); err != nil {
			log.Fatal(err)
		}
		st := exp.Stats()
		fmt.Printf("%s: pushed %d reports in %d batches, %d snapshots, dropped=%d\n",
			names[i], st.Exported, st.Batches, st.Snapshots, st.Dropped)
	}

	// Collect now drains the analyzer's merged, deduplicated stream.
	reports, err := ctl.Collect()
	if err != nil {
		log.Fatal(err)
	}
	col := analyzer.NewCollector(window, q.ReportKeys())
	col.AddAll(reports)
	fmt.Printf("collected %d deduplicated alerts from the push stream\n", col.Raw)
	for k := range col.FlaggedKeys() {
		fmt.Printf("  SYN flood victim: %d.%d.%d.%d\n", k>>24&0xFF, k>>16&0xFF, k>>8&0xFF, k&0xFF)
	}

	// The merged Count-Min view answers point queries no single switch
	// can: the victim's count lives only on its owner switch, but the
	// analyzer's summed banks cover the whole key space.
	var keys fields.Vector
	keys.Set(fields.DstIP, uint64(victim))
	lastEpoch := uint32(ticks - 1)
	if est, ok := svc.Estimate(qid, 0, lastEpoch, &keys); ok {
		fmt.Printf("network-wide estimate for the victim in epoch %d: %d SYNs\n", lastEpoch, est)
	}

	st := svc.Stats()
	fmt.Printf("analyzer: %d agents, %d reports, %d cross-stream duplicates suppressed, %d snapshots merged\n",
		st.Agents, st.Reports, st.DuplicateAlerts, st.Snapshots)

	for _, exp := range exporters {
		exp.Close()
	}
	svc.Close()
}
