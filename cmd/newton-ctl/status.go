package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
)

// runStatus is the `newton-ctl status` entry: deploy the chosen queries
// over an in-process fleet, stand up the health monitor that watches
// it, and render its fleet-health snapshot — the same table an operator
// would read against a live deployment. -kill demonstrates the closed
// loop: the named switch's control channel is severed, the monitor's
// next rounds debounce it to down, auto-drain it, and converge its
// queries onto the survivors, all visible in the final snapshot and
// event log.
func runStatus(args []string) {
	fs := flag.NewFlagSet("newton-ctl status", flag.ExitOnError)
	var (
		topoSpec = fs.String("topology", "linear:3", "topology: linear:N, fattree:K, or isp")
		queries  = fs.String("queries", "q1,q4", "comma-separated catalog queries (q1..q9), priority = listed order")
		stages   = fs.Int("switch-stages", 8, "pipeline stages of each switch device")
		arrays   = fs.Uint("registers", 1<<14, "state-bank registers per switch")
		rules    = fs.Int("rules", 256, "rule capacity per module table")
		kill     = fs.String("kill", "", "sever this switch's control channel and watch the monitor drain it")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	topo, _, _ := buildTopology(*topoSpec)
	fleet, budgets := buildFleet(topo, *stages, uint32(*arrays), *rules)
	remote := controller.NewRemote(fleet.clients, 1)
	orch, err := orchestrator.New(orchestrator.Config{Topo: topo, Budgets: budgets}, remote)
	if err != nil {
		log.Fatal(err)
	}

	var intents []orchestrator.Intent
	names := strings.Split(*queries, ",")
	for i, name := range names {
		q, err := query.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		intents = append(intents, orchestrator.Intent{Query: q, Priority: len(names) - i})
	}
	orch.SetIntents(intents)
	if _, _, err := orch.Converge(); err != nil {
		log.Fatalf("initial converge: %v", err)
	}

	// Stand up the telemetry plane the fleet pushes into: one analyzer
	// service, one exporter per switch.
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	remote.AttachTelemetry(svc)
	for _, name := range fleet.names {
		sconn, econn := net.Pipe()
		go svc.HandleConn(sconn)
		exp, err := telemetry.NewExporter(econn, telemetry.ExporterConfig{
			SwitchID: name, KeyframeEvery: 4,
		})
		if err != nil {
			log.Fatalf("telemetry exporter %s: %v", name, err)
		}
		exp.AttachAgent(fleet.agents[name], fleet.engines[name])
		defer exp.Close()
	}
	// Roll a few epochs so snapshots flow.
	for i := 0; i < 6; i++ {
		if err := remote.Tick(); err != nil {
			log.Fatalf("epoch tick: %v", err)
		}
	}

	mon, err := orchestrator.NewMonitor(orch, orch.Switches(), orchestrator.HealthConfig{
		// In-process pipes fail instantly once severed, so one bad round
		// may suspect and the next drain — the demo-speed ladder.
		Probe: func(name string) error {
			_, err := fleet.clients[name].Stats()
			return err
		},
		Offline:      remote.SetOffline,
		SuspectAfter: 1, DownAfter: 1, RecoverAfter: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	mon.Tick()
	fmt.Printf("fleet (%d switches, queries %s):\n%s", len(budgets), *queries, mon.Snapshot())
	printWireTable(svc, fleet.names)

	if *kill == "" {
		return
	}
	c, ok := fleet.clients[*kill]
	if !ok {
		log.Fatalf("status: unknown switch %q", *kill)
	}
	fmt.Printf("\nsevering %s's control channel and re-evaluating:\n", *kill)
	c.Close()
	for i := 0; i < 3; i++ {
		mon.Tick()
	}
	snap := mon.Snapshot()
	fmt.Print(snap)
	fmt.Println("\nevents:")
	for _, ev := range snap.Events {
		fmt.Printf("  %s\n", ev)
	}
	fmt.Println("\nsurviving installs:")
	fleet.printInstalls()
}

// printWireTable renders each agent stream's wire economics:
// compression ratio (bytes on the wire over their uncompressed cost),
// the share of snapshot frames that shipped as deltas instead of
// keyframes, and what the stream's decoder holds between frames to apply
// those deltas to.
func printWireTable(svc *telemetry.Service, names []string) {
	// The pipe write returns before the service's read loop finishes
	// accounting the frame; settle until the byte counters stop moving.
	var last uint64
	for i := 0; i < 100; i++ {
		st := svc.Stats()
		if i > 0 && st.WireBytes == last {
			break
		}
		last = st.WireBytes
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("\ntelemetry wire:")
	fmt.Printf("  %-14s %7s %10s %6s %6s %9s\n",
		"switch", "frames", "bytes", "comp", "delta", "held")
	for _, name := range names {
		wi, ok := svc.AgentWire(name)
		if !ok {
			continue
		}
		comp := "-"
		if wi.RawBytes > 0 {
			comp = fmt.Sprintf("%.2f", float64(wi.Bytes)/float64(wi.RawBytes))
		}
		delta := "-"
		if snaps := wi.DeltaFrames + wi.KeyframeFrames; snaps > 0 {
			delta = fmt.Sprintf("%d%%", 100*wi.DeltaFrames/snaps)
		}
		fmt.Printf("  %-14s %7d %10d %6s %6s %8dB\n",
			name, wi.Frames, wi.Bytes, comp, delta, wi.HeldBytes)
	}
}
