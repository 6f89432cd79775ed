// Streaming telemetry: push-based export and the network-wide merging
// analyzer.
//
// Three switches in a line share one heavy-hitter query via key sharding
// (§5.1): every packet crosses all three, and each switch owns a third
// of the destination-IP key space, so every key's counters live on
// exactly one switch. Instead of the controller polling each agent, the
// agents stream their mirrored reports and sketch snapshots to an
// analyzer service over TCP, which sums the per-switch Count-Min banks
// into a single network-wide sketch, deduplicates threshold alerts, and
// feeds the controller's Collect path. Every window end — the network's
// virtual clock or the controller's tick — ships a switch's reports,
// then its banks, then rolls.
//
// Run with: go run ./examples/streaming-telemetry
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

func main() {
	// Switch agents, their exporters, the analyzer service and the
	// controller, wired over loopback TCP.
	topo, h1, h2 := topology.Linear(3)
	f, err := fleet.New(topo, fleet.Config{
		Net:      netsim.Config{Stages: 16, ArraySize: 1 << 15},
		TCP:      true,
		Exporter: &telemetry.ExporterConfig{Policy: telemetry.PolicyBlock},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Printf("%d switch agents streaming telemetry to one analyzer service\n", len(f.Names))

	q, err := query.Parse("syn_flood_watch",
		"filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 40)")
	if err != nil {
		log.Fatal(err)
	}
	qid, delay, err := f.Ctl.Deploy(0, controller.Want{Query: q, Width: 1 << 12, Targets: f.Names, Sharded: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed %q sharded over %d switches in %v\n",
		q.Name, len(f.Names), delay.Round(time.Microsecond))

	// Three windows of traffic: the virtual clock ends the first two, the
	// controller's tick the last.
	victim := uint32(0x0A000042)
	tr := trace.Generate(trace.Config{Seed: 5, Flows: 200, Duration: 300 * time.Millisecond},
		trace.SYNFlood{Victim: victim, Packets: 600})
	f.Net.DeliverBatch(tr.Packets, h1, h2)
	if err := f.Ctl.Tick(); err != nil {
		log.Fatal(err)
	}

	// Drain the streams and prove the block policy lost nothing.
	for _, name := range f.Names {
		exp := f.Switches[name].Exporter
		if err := exp.Flush(); err != nil {
			log.Fatal(err)
		}
		st := exp.Stats()
		fmt.Printf("%s: pushed %d reports in %d batches, %d snapshots, dropped=%d\n",
			name, st.Exported, st.Batches, st.Snapshots, st.Dropped)
	}

	// Collect now drains the analyzer's merged, deduplicated stream.
	reports, err := f.Ctl.Collect()
	if err != nil {
		log.Fatal(err)
	}
	col := analyzer.NewCollector(uint64(q.Window), q.ReportKeys())
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
	lastEpoch := f.Switches[f.Names[0]].Node.Layout.Epoch() - 1
	if est, ok := f.Svc.Estimate(qid, 0, lastEpoch, &keys); ok {
		fmt.Printf("network-wide estimate for the victim in epoch %d: %d SYNs\n", lastEpoch, est)
	}

	st := f.Svc.Stats()
	fmt.Printf("analyzer: %d agents, %d reports, %d cross-stream duplicates suppressed, %d snapshots merged\n",
		st.Agents, st.Reports, st.DuplicateAlerts, st.Snapshots)
}
