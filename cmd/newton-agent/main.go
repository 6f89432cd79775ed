// newton-agent runs one simulated Newton switch as a standalone process:
// it loads the module layout, replays packets from a pcap through the
// pipeline, and serves the control channel so a remote controller can
// install, remove, and drain queries over TCP.
//
// With -analyzer, the agent additionally opens a streaming telemetry
// connection and pushes mirrored reports (batched, through a bounded
// ring with the chosen overflow policy) and epoch-boundary state-bank
// snapshots to a newton-analyzer process, instead of waiting to be
// polled.
//
// Usage:
//
//	newton-agent -listen 127.0.0.1:9441 -pcap trace.pcap -loop 3
//	newton-agent -listen 127.0.0.1:9441 -analyzer 127.0.0.1:9500 -pcap trace.pcap
//
// Then, from another process, dial 127.0.0.1:9441 with internal/rpc (or
// drive it from tests) to deploy queries while traffic flows.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
	"github.com/newton-net/newton/internal/version"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9441", "control-channel listen address")
		name      = flag.String("name", "sw1", "switch identifier in reports")
		stages    = flag.Int("stages", 16, "module pipeline stages")
		arraySize = flag.Uint("registers", 1<<15, "registers per state bank")
		pcapPath  = flag.String("pcap", "", "pcap to replay through the pipeline ('' = control plane only)")
		loop      = flag.Int("loop", 1, "times to replay the pcap")
		window    = flag.Duration("window", 100*time.Millisecond, "evaluation window (register epoch)")
		gap       = flag.Duration("gap", 0, "real-time pause between replay loops")
		workers   = flag.Int("workers", 1, "replay worker lanes; packets shard by symmetric flow hash (0 = GOMAXPROCS)")

		analyzer  = flag.String("analyzer", "", "analyzer telemetry address ('' = poll-only draining)")
		policy    = flag.String("export-policy", "block", "export overflow policy: block | drop-oldest")
		ringSize  = flag.Int("export-ring", 4096, "export ring capacity in reports")
		batchSize = flag.Int("export-batch", 256, "max reports per telemetry frame")

		obsAddr  = flag.String("obs-addr", "", "observability HTTP address for /metrics, /debug/vars, pprof ('' = disabled)")
		showVers = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVers {
		fmt.Println(version.String("newton-agent"))
		return
	}

	W := *workers
	if W <= 0 {
		W = runtime.GOMAXPROCS(0)
	}
	if W < 1 {
		W = 1
	}

	layout, err := modules.NewLayout(modules.LayoutCompact, *stages, uint32(*arraySize))
	if err != nil {
		log.Fatalf("newton-agent: %v", err)
	}
	eng := modules.NewEngine(layout)
	eng.SetWorkers(W)
	sw := dataplane.NewSwitch(*name, *stages, modules.StageCapacity())
	sw.SetLanes(W)
	if err := sw.AddRoute(0, 0, 1); err != nil {
		log.Fatal(err)
	}
	sw.Monitor = eng

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("newton-agent: %v", err)
	}
	fmt.Fprintf(os.Stderr, "newton-agent: %s serving control channel on %s\n", *name, ln.Addr())
	agent := rpc.NewAgent(sw, eng)
	agent.OnError = func(err error) {
		fmt.Fprintf(os.Stderr, "newton-agent: control channel: %v\n", err)
	}

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		version.RegisterObs(reg, "newton-agent")
		modules.AttachObs(eng, reg, *name)
		agent.RegisterObs(reg, *name)
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatalf("newton-agent: obs: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "newton-agent: observability on http://%s/metrics\n", srv.Addr())
	}

	var exp *telemetry.Exporter
	if *analyzer != "" {
		pol := telemetry.PolicyBlock
		switch *policy {
		case "block":
		case "drop-oldest":
			pol = telemetry.PolicyDropOldest
		default:
			log.Fatalf("newton-agent: unknown -export-policy %q", *policy)
		}
		// DialAttached wires the control agent's epoch hooks in one step
		// (and unwires them if the dial fails); the exporter then
		// auto-reconnects after analyzer outages, replaying its latest
		// epoch snapshot, so the agent never needs a restart.
		exp, err = telemetry.DialAttached(*analyzer, telemetry.ExporterConfig{
			SwitchID:  *name,
			RingSize:  *ringSize,
			BatchSize: *batchSize,
			Policy:    pol,
		}, agent, eng)
		if err != nil {
			log.Fatalf("newton-agent: %v", err)
		}
		defer exp.Close()
		if reg != nil {
			exp.RegisterObs(reg)
		}
		fmt.Fprintf(os.Stderr, "newton-agent: streaming telemetry to %s (policy=%s, auto-reconnect)\n", *analyzer, pol)
	}

	go func() {
		if err := agent.Serve(ln); err != nil {
			log.Fatalf("newton-agent: %v", err)
		}
	}()

	// push drains the switch's mirrored reports into the telemetry
	// stream (no-op when no analyzer is attached: the controller polls).
	push := func() {
		if exp != nil {
			exp.Export(sw.DrainReports())
		}
	}
	// roll exports the ending epoch's state banks, then rolls the window.
	roll := func() {
		if exp != nil {
			if err := exp.ExportEpoch(eng); err != nil {
				fmt.Fprintf(os.Stderr, "newton-agent: %v\n", err)
			}
		}
		eng.RollEpoch()
	}

	if *pcapPath == "" {
		select {} // control plane only; serve until killed
	}

	f, err := os.Open(*pcapPath)
	if err != nil {
		log.Fatalf("newton-agent: %v", err)
	}
	pkts, skipped, err := trace.ReadPcap(f)
	f.Close()
	if err != nil {
		log.Fatalf("newton-agent: reading pcap: %v", err)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "newton-agent: skipped %d undecodable packets\n", skipped)
	}

	// Replay lanes: each worker owns a context, a report sink, and a shard
	// buffer, all reused across windows. Packets shard by symmetric flow
	// hash so both directions of a flow replay in order on one lane; lanes
	// join at every window boundary before the epoch rolls.
	type replayLane struct {
		ctx   *dataplane.Context
		sink  []dataplane.Report
		shard []*packet.Packet
	}
	lanes := make([]*replayLane, W)
	for w := range lanes {
		ln := &replayLane{}
		ln.ctx = dataplane.NewBatchContext(&ln.sink, w)
		lanes[w] = ln
	}
	var wg sync.WaitGroup
	processWindow := func(seg []*packet.Packet) {
		if W == 1 {
			for _, pkt := range seg {
				sw.Process(pkt)
			}
			return
		}
		for _, ln := range lanes {
			ln.shard = ln.shard[:0]
		}
		for _, pkt := range seg {
			w := int(pkt.Flow().LaneHash() % uint64(W))
			lanes[w].shard = append(lanes[w].shard, pkt)
		}
		wg.Add(W)
		for w := 0; w < W; w++ {
			go func(ln *replayLane) {
				defer wg.Done()
				for _, pkt := range ln.shard {
					sw.ProcessCtx(pkt, ln.ctx)
				}
			}(lanes[w])
		}
		wg.Wait()
		for _, ln := range lanes {
			if len(ln.sink) != 0 {
				sw.AddReports(ln.sink)
				ln.sink = ln.sink[:0]
			}
		}
	}

	for l := 0; l < *loop; l++ {
		nextEpoch := uint64(*window)
		start := 0
		for start < len(pkts) {
			end := start
			for end < len(pkts) && pkts[end].TS < nextEpoch {
				end++
			}
			if end > start {
				processWindow(pkts[start:end])
				start = end
			}
			if start < len(pkts) {
				// The next packet crosses the boundary: flush mirrors,
				// merge shards, roll the window, then resume.
				push()
				roll()
				nextEpoch += uint64(*window)
			}
		}
		push()
		roll()
		c := sw.Counters()
		fmt.Fprintf(os.Stderr, "newton-agent: loop %d/%d done (rx=%d tx=%d dropped=%d, %d reports pending)\n",
			l+1, *loop, c.Rx, c.Tx, c.Dropped, sw.PendingReports())
		if *gap > 0 {
			time.Sleep(*gap)
		}
	}
	if exp != nil {
		if err := exp.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "newton-agent: flush: %v\n", err)
		}
		st := exp.Stats()
		fmt.Fprintf(os.Stderr,
			"newton-agent: telemetry: %d/%d reports exported in %d batches, %d dropped, %d snapshots, %d reconnects\n",
			st.Exported, st.Enqueued, st.Batches, st.Dropped, st.Snapshots, st.Reconnects)
	}
	// Keep serving so the controller can drain the final reports.
	fmt.Fprintln(os.Stderr, "newton-agent: replay complete; control channel stays up (ctrl-c to exit)")
	select {}
}
