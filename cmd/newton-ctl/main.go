// newton-ctl is a demonstration controller shell: it builds a simulated
// deployment, installs queries from the Table 2 catalog (or replays a
// pcap through them), and prints what the data plane reports.
//
// Usage:
//
//	newton-ctl -topology linear:3 -queries q1,q4,q6 -flows 2000
//	newton-ctl -topology fattree:4 -queries q4 -mode partition -stages 8
//	newton-ctl -queries q1 -pcap trace.pcap
//	newton-ctl -queries q1,q4 -obs-addr 127.0.0.1:9700   # then, elsewhere:
//	newton-ctl top -addr 127.0.0.1:9700
//	newton-ctl plan -topology linear:3 -queries q1,q4    # network-wide plan + diff
//	newton-ctl apply -topology linear:3 -queries q1,q4 -drain s2
//	newton-ctl status -topology linear:3 -queries q1,q4 -kill s2  # fleet health + self-healing demo
//	newton-ctl refine -seed 1                            # closed-loop adaptive accuracy demo
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
	"github.com/newton-net/newton/internal/version"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "top" {
		runTop(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && (os.Args[1] == "plan" || os.Args[1] == "apply") {
		runOrch(os.Args[1], os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "status" {
		if err := runStatus(os.Stdout, os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "refine" {
		runRefine(os.Args[2:])
		return
	}
	var (
		topoSpec = flag.String("topology", "linear:3", "topology: linear:N, fattree:K, or isp")
		queries  = flag.String("queries", "q1", "comma-separated catalog queries (q1..q9)")
		expr     = flag.String("expr", "", "ad-hoc intent in the query DSL, e.g. 'filter(proto == udp) | reduce(dip, sum) | filter(result > 100)'")
		mode     = flag.String("mode", "replicate", "deployment mode: replicate, shard, partition")
		stages   = flag.Int("stages", 6, "stages per switch for partition mode")
		flows    = flag.Int("flows", 2000, "background flows of the generated workload")
		dur      = flag.Duration("duration", 300*time.Millisecond, "workload duration")
		seed     = flag.Int64("seed", 1, "workload seed")
		pcapPath = flag.String("pcap", "", "replay a pcap instead of generating a workload")
		attacks  = flag.Bool("attacks", true, "inject the full attack mix into generated workloads")

		obsAddr  = flag.String("obs-addr", "", "observability HTTP address for /metrics, /debug/vars, pprof; keeps serving after the run ('' = disabled)")
		showVers = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVers {
		fmt.Println(version.String("newton-ctl"))
		return
	}

	topo, h1, h2, err := buildTopology(*topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	net, err := netsim.New(topo, netsim.Config{Stages: 16, ArraySize: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	ctl := controller.NewNewton(net, *seed)

	var obsSrv *obs.Server
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		version.RegisterObs(reg, "newton-ctl")
		ctl.RegisterObs(reg)
		obsSrv, err = obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatalf("newton-ctl: obs: %v", err)
		}
		defer obsSrv.Close()
		fmt.Fprintf(os.Stderr, "newton-ctl: observability on http://%s/metrics\n", obsSrv.Addr())
	}

	m := map[string]controller.Mode{
		"replicate": controller.Replicate,
		"shard":     controller.Shard,
		"partition": controller.Partition,
	}[strings.ToLower(*mode)]

	var wanted []*query.Query
	if *expr != "" {
		q, err := query.Parse("adhoc", *expr)
		if err != nil {
			log.Fatal(err)
		}
		wanted = append(wanted, q)
	} else {
		for _, name := range strings.Split(*queries, ",") {
			q, err := query.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			wanted = append(wanted, q)
		}
	}
	installed := map[int]*query.Query{}
	for _, q := range wanted {
		spec := controller.Spec{Query: q, Mode: m}
		if m == controller.Partition {
			spec.StagesPerSwitch = *stages
		}
		dep, delay, err := ctl.Install(spec)
		if err != nil {
			log.Fatalf("installing %s: %v", q.Name, err)
		}
		installed[dep.QID] = q
		fmt.Printf("installed %-26s qid=%d mode=%-9s switches=%-3d rules=%-4d delay=%v\n",
			q.Name, dep.QID, dep.Mode, len(dep.Switches), dep.Rules, delay.Round(time.Microsecond))
	}

	var pkts []*packet.Packet
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		pkts, _, err = trace.ReadPcap(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d packets from %s\n", len(pkts), *pcapPath)
	} else {
		var overlays []trace.Overlay
		if *attacks {
			overlays = []trace.Overlay{
				trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
				trace.UDPFlood{Victim: 0x0A0000AB, Sources: 150},
				trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 200},
				trace.SSHBrute{Victim: 0x0A0000AD, Attempts: 100},
				trace.Slowloris{Victim: 0x0A0000AE, Conns: 150},
				trace.DNSNoTCP{Hosts: 4, Queries: 30},
				trace.SuperSpreader{Source: 0x0B000002, Fanout: 200},
			}
		}
		tr := trace.Generate(trace.Config{Seed: *seed, Flows: *flows, Duration: *dur}, overlays...)
		pkts = tr.Packets
		fmt.Printf("generated %d packets (%d flows, %v)\n", len(pkts), *flows, *dur)
	}

	for _, pkt := range pkts {
		net.Deliver(pkt, h1, h2)
	}
	delivered, dropped := net.Stats()
	fmt.Printf("delivered %d packets, dropped %d\n\n", delivered, dropped)

	reports := net.DrainReports()
	byQID := map[int][]int{}
	for i, r := range reports {
		byQID[r.QueryID] = append(byQID[r.QueryID], i)
	}
	// Queries by qid and keys by value: the same seed prints the same bytes.
	qids := make([]int, 0, len(byQID))
	for qid := range byQID {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	for _, qid := range qids {
		q := installed[qid]
		if q == nil {
			continue
		}
		col := analyzer.NewCollector(uint64(q.Window), q.ReportKeys())
		for _, i := range byQID[qid] {
			col.Add(reports[i])
		}
		fmt.Printf("%s: %d reports, flagged:", q.Name, col.Raw)
		var keys []uint64
		for k := range col.FlaggedKeys() {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Printf(" %d.%d.%d.%d", k>>24&0xFF, k>>16&0xFF, k>>8&0xFF, k&0xFF)
		}
		fmt.Println()
	}

	if obsSrv != nil {
		fmt.Fprintf(os.Stderr, "newton-ctl: run complete; observability stays up on http://%s (try `newton-ctl top -addr %s`, ctrl-c to exit)\n",
			obsSrv.Addr(), obsSrv.Addr())
		select {}
	}
}

func buildTopology(spec string) (topo *topology.Topology, h1, h2 int, err error) {
	kind, n, _ := strings.Cut(spec, ":")
	arg := 0
	if n != "" {
		if arg, err = strconv.Atoi(n); err != nil {
			return nil, 0, 0, fmt.Errorf("newton-ctl: bad topology %q", spec)
		}
	}
	switch kind {
	case "linear":
		topo, h1, h2 = topology.Linear(cmp.Or(arg, 3))
	case "fattree":
		topo = topology.FatTree(cmp.Or(arg, 4))
		hosts := topo.Hosts()
		h1, h2 = hosts[0], hosts[len(hosts)-1]
	case "isp":
		topo = topology.ISPBackbone()
		// Attach hosts to two coastal POPs for end-to-end delivery.
		h1 = topo.AddNode("h_sf", topology.Host)
		h2 = topo.AddNode("h_ny", topology.Host)
		topo.AddLink(topo.NodeByName("SanFrancisco"), h1)
		topo.AddLink(topo.NodeByName("NewYork"), h2)
	default:
		return nil, 0, 0, fmt.Errorf("newton-ctl: unknown topology %q", spec)
	}
	return topo, h1, h2, nil
}
