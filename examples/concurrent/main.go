// Concurrent queries: the full Table 2 catalog multiplexed on one
// switch.
//
// All nine evaluation queries install side by side into a single module
// layout — sharing module tables and state banks through rule
// multiplexing — and a mixed workload carrying every attack class shows
// each query firing on its own targets. The footprint report at the end
// is the resource-multiplexing story of Fig. 16 in miniature.
//
// Run with: go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"github.com/newton-net/newton"
)

func main() {
	topo, h1, h2 := newton.LinearTopology(1)
	net, err := newton.NewNetwork(topo, newton.NetworkConfig{Stages: 16, ArraySize: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	ctl := newton.NewController(net, 5)

	queries := newton.AllQueries()
	var totalDelay time.Duration
	for _, q := range queries {
		dep, delay, err := ctl.Install(newton.Deploy{Query: q, Width: 1 << 11})
		if err != nil {
			log.Fatalf("installing %s: %v", q.Name, err)
		}
		totalDelay += delay
		fmt.Printf("installed %-26s as query %d (%2d rules, %v)\n",
			q.Name, dep.QID, dep.Rules, delay.Round(time.Microsecond))
	}
	fmt.Printf("all nine intents live in %v total — one pipeline, zero reboots\n\n", totalDelay.Round(time.Millisecond))

	// One workload carrying every attack class the catalog targets.
	tr := newton.GenerateTrace(newton.TraceConfig{Seed: 31, Flows: 1500, Duration: 300 * time.Millisecond},
		newton.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		newton.UDPFlood{Victim: 0x0A0000AB, Sources: 150},
		newton.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 200},
		newton.SSHBrute{Victim: 0x0A0000AD, Attempts: 100},
		newton.Slowloris{Victim: 0x0A0000AE, Conns: 150},
		newton.DNSNoTCP{Hosts: 4, Queries: 30},
		newton.SuperSpreader{Source: 0x0B000002, Fanout: 200},
	)
	for _, pkt := range tr.Packets {
		net.Deliver(pkt, h1, h2)
	}

	perQuery := map[int]map[uint64]bool{}
	for _, r := range net.DrainReports() {
		if perQuery[r.QueryID] == nil {
			perQuery[r.QueryID] = map[uint64]bool{}
		}
		key := r.Keys.Get(newton.FieldDstIP)
		if key == 0 {
			key = r.Keys.Get(newton.FieldSrcIP)
		}
		perQuery[r.QueryID][key] = true
	}
	fmt.Printf("detections over %d packets:\n", len(tr.Packets))
	for i, q := range queries {
		var keys []uint64
		for k := range perQuery[i+1] {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Printf("  Q%d %-26s -> %d flagged host(s)", i+1, q.Name, len(keys))
		for _, k := range keys {
			fmt.Printf("  %d.%d.%d.%d", k>>24&0xFF, k>>16&0xFF, k>>8&0xFF, k&0xFF)
		}
		fmt.Println()
	}

	node := net.Node(topo.Switches()[0])
	fmt.Printf("\nswitch footprint: %d table rules across the shared module layout\n",
		node.Layout.TotalRuleEntries())
	fmt.Printf("registers held by the installed queries: %d\n", node.Eng.StateHostBytes()/4)
}
