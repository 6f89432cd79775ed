package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/telemetry"
)

// runStatus is the `newton-ctl status` entry: deploy the chosen queries
// over a fleet of agents on in-memory pipes, each pushing telemetry into
// one analyzer service, stand up the health monitor that watches it,
// and render its fleet-health snapshot — the same table an operator
// would read against a live deployment. -kill demonstrates the closed
// loop: the named switch's control channel is severed, the monitor's
// next rounds debounce it to down, auto-drain it, and converge its
// queries onto the survivors, all visible in the final snapshot and
// event log.
func runStatus(args []string) {
	fs := flag.NewFlagSet("newton-ctl status", flag.ExitOnError)
	var (
		ff   = addFleetFlags(fs)
		kill = fs.String("kill", "", "sever this switch's control channel and watch the monitor drain it")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	f, orch := ff.build(&telemetry.ExporterConfig{KeyframeEvery: 4}, 0, 0)
	defer f.Close()
	if _, _, err := orch.Converge(); err != nil {
		log.Fatalf("initial converge: %v", err)
	}

	// Roll a few epochs so snapshots flow.
	for i := 0; i < 6; i++ {
		if err := f.Ctl.Tick(); err != nil {
			log.Fatalf("epoch tick: %v", err)
		}
	}

	mon, err := orchestrator.NewMonitor(orch, orch.Switches(), orchestrator.HealthConfig{
		// In-process pipes fail instantly once severed, so one bad round
		// may suspect and the next drain — the demo-speed ladder.
		Probe: func(name string) error {
			_, err := f.Switches[name].Client.Stats()
			return err
		},
		Offline:      f.Ctl.SetOffline,
		SuspectAfter: 1, DownAfter: 1, RecoverAfter: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	mon.Tick()
	fmt.Printf("fleet (%d switches, queries %s):\n%s", len(f.Names), *ff.queries, mon.Snapshot())
	printWireTable(f.Svc, f.Names)

	if *kill == "" {
		return
	}
	sw := f.Switches[*kill]
	if sw == nil {
		log.Fatalf("status: unknown switch %q", *kill)
	}
	fmt.Printf("\nsevering %s's control channel and re-evaluating:\n", *kill)
	sw.Client.Close()
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
	printInstalls(f)
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
