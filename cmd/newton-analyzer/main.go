// newton-analyzer runs the network-wide software analyzer as a
// standalone process: it accepts streaming telemetry from any number of
// newton-agent processes (reports pushed in batches, state-bank
// snapshots at every epoch boundary), merges per-switch sketch banks
// into network-wide Count-Min and Bloom views, deduplicates threshold
// alerts across switches, and prints the consolidated result stream.
//
// Usage:
//
//	newton-analyzer -listen 127.0.0.1:9500
//	newton-agent -listen 127.0.0.1:9441 -analyzer 127.0.0.1:9500 -pcap trace.pcap
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/version"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:9500", "telemetry stream listen address")
		window = flag.Duration("window", 100*time.Millisecond, "query window for cross-switch alert dedup")
		keep   = flag.Int("keep-epochs", 16, "merged epochs retained per query")
		stats  = flag.Duration("stats", 10*time.Second, "interval between ingest-stats lines (0 = off)")

		obsAddr  = flag.String("obs-addr", "", "observability HTTP address for /metrics, /debug/vars, pprof ('' = disabled)")
		showVers = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVers {
		fmt.Println(version.String("newton-analyzer"))
		return
	}

	svc := telemetry.NewService(telemetry.ServiceConfig{Window: *window, KeepEpochs: *keep})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("newton-analyzer: %v", err)
	}
	fmt.Fprintf(os.Stderr, "newton-analyzer: ingesting telemetry on %s\n", ln.Addr())

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		version.RegisterObs(reg, "newton-analyzer")
		svc.RegisterObs(reg)
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatalf("newton-analyzer: obs: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "newton-analyzer: observability on http://%s/metrics\n", srv.Addr())
	}

	events, cancel := svc.Subscribe(1024)
	defer cancel()
	go func() {
		for ev := range events {
			switch ev.Kind {
			case telemetry.EventAlert:
				r := ev.Report
				fmt.Printf("alert qid=%d window=%d switch=%s keys=%s state=%d global=%d\n",
					r.QueryID, ev.Window, r.SwitchID, maskedKeys(&r), r.State, r.Global)
			case telemetry.EventSnapshotMerged:
				fmt.Fprintf(os.Stderr, "newton-analyzer: merged %d banks from %s at epoch %d\n",
					ev.Banks, ev.SwitchID, ev.Epoch)
			}
		}
	}()

	if *stats > 0 {
		go func() {
			for range time.Tick(*stats) {
				st := svc.Stats()
				fmt.Fprintf(os.Stderr,
					"newton-analyzer: agents=%d live=%d queries=%d reports=%d dup_alerts=%d snapshots=%d reconnects=%d epoch_gaps=%d partial_epochs=%d stream_errors=%d\n",
					st.Agents, st.LiveAgents, st.Queries, st.Reports, st.DuplicateAlerts, st.Snapshots,
					st.Reconnects, st.EpochGaps, st.PartialEpochs, st.StreamErrors)
			}
		}()
	}

	if err := svc.Serve(ln); err != nil {
		log.Fatalf("newton-analyzer: %v", err)
	}
}

// maskedKeys renders a report's masked operation keys, e.g.
// "dip=167772330".
func maskedKeys(r *dataplane.Report) string {
	var parts []string
	for _, id := range r.KeyMask.Fields() {
		parts = append(parts, fmt.Sprintf("%s=%d", id, r.Keys.Get(id)&r.KeyMask[id]))
	}
	return strings.Join(parts, ",")
}
