package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"github.com/newton-net/newton/internal/obs"
)

// runTop implements `newton-ctl top`: fetch the JSON metrics snapshot
// of a running daemon (agent, analyzer, or controller) and render the
// per-query resource accounting plus headline counters — the live view
// of the paper's §6 per-query cost tables.
func runTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9700", "observability address of the target process")
	watch := fs.Duration("watch", 0, "refresh interval (0 = print once and exit)")
	_ = fs.Parse(args)

	for {
		snap, err := fetchSnapshot(*addr)
		if err != nil {
			log.Fatalf("newton-ctl top: %v", err)
		}
		renderTop(os.Stdout, snap)
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}

func fetchSnapshot(addr string) (*obs.Snapshot, error) {
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics.json: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	return &snap, nil
}

// queryRow is one installed query's resource line, assembled from the
// newton_query_* gauge families.
type queryRow struct {
	qid     int
	query   string
	scope   string // the switch or mode label, whichever the publisher used
	stages  int64
	regs    int64
	hashes  int64
	salus   int64
	initR   int64
	resultR int64
	rules   int64
}

func renderTop(w *os.File, snap *obs.Snapshot) {
	rows := map[string]*queryRow{}
	rowFor := func(s *obs.Series) *queryRow {
		qid, _ := strconv.Atoi(s.Labels["qid"])
		scope := s.Labels["switch"]
		if scope == "" {
			scope = s.Labels["mode"]
		}
		key := s.Labels["qid"] + "\x00" + scope
		r := rows[key]
		if r == nil {
			r = &queryRow{qid: qid, query: s.Labels["query"], scope: scope}
			rows[key] = r
		}
		return r
	}
	assign := map[string]func(*queryRow, int64){
		"newton_query_stages":       func(r *queryRow, v int64) { r.stages = v },
		"newton_query_registers":    func(r *queryRow, v int64) { r.regs = v },
		"newton_query_hash_units":   func(r *queryRow, v int64) { r.hashes = v },
		"newton_query_salus":        func(r *queryRow, v int64) { r.salus = v },
		"newton_query_init_rules":   func(r *queryRow, v int64) { r.initR = v },
		"newton_query_result_rules": func(r *queryRow, v int64) { r.resultR = v },
		"newton_query_rules":        func(r *queryRow, v int64) { r.rules = v },
	}
	for name, set := range assign {
		f := snap.Get(name)
		if f == nil {
			continue
		}
		for i := range f.Series {
			s := &f.Series[i]
			set(rowFor(s), int64(s.Value))
		}
	}

	if len(rows) == 0 {
		fmt.Fprintln(w, "no per-query resource gauges (no queries installed, or the target does not publish them)")
	} else {
		sorted := make([]*queryRow, 0, len(rows))
		for _, r := range rows {
			sorted = append(sorted, r)
		}
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].qid != sorted[j].qid {
				return sorted[i].qid < sorted[j].qid
			}
			return sorted[i].scope < sorted[j].scope
		})
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "QID\tQUERY\tSCOPE\tSTAGES\tREGISTERS\tHASH\tSALU\tINIT\tR-RULES\tRULES")
		for _, r := range sorted {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				r.qid, r.query, r.scope, r.stages, r.regs, r.hashes, r.salus, r.initR, r.resultR, r.rules)
		}
		tw.Flush()
	}

	renderState(w, snap)

	// Headline counters, whichever the target exposes.
	headline := []string{
		"newton_engine_packets_total",
		"newton_engine_dispatch_misses_total",
		"newton_engine_dispatch_evictions_total",
		"newton_rpc_agent_requests_total",
		"newton_rpc_client_calls_total",
		"newton_export_ring_depth",
		"newton_export_dropped_total",
		"newton_analyzer_reports_total",
		"newton_analyzer_partial_epochs_total",
		"newton_ctl_deploys_total",
	}
	printed := false
	for _, name := range headline {
		f := snap.Get(name)
		if f == nil || len(f.Series) == 0 {
			continue
		}
		if !printed {
			fmt.Fprintln(w)
			printed = true
		}
		for i := range f.Series {
			s := &f.Series[i]
			label := name
			for _, k := range []string{"switch", "peer", "result", "module"} {
				if v := s.Labels[k]; v != "" {
					label += "{" + k + "=" + v + "}"
				}
			}
			fmt.Fprintf(w, "%-50s %g\n", label, s.Value)
		}
	}
}

// renderState prints one state-memory line per switch: how full the
// fullest bank's admission budget is (the number admission fails on)
// beside what the admitted registers cost the host (4 B each) — two
// different things since a bank's ArraySize allocates nothing.
func renderState(w *os.File, snap *obs.Snapshot) {
	host := snap.Get("newton_engine_state_host_bytes")
	if host == nil {
		return
	}
	type fill struct {
		total, max int64
		at         string
	}
	fills := map[string]*fill{}
	if regs := snap.Get("newton_engine_state_registers"); regs != nil {
		for i := range regs.Series {
			s := &regs.Series[i]
			f := fills[s.Labels["switch"]]
			if f == nil {
				f = &fill{}
				fills[s.Labels["switch"]] = f
			}
			v := int64(s.Value)
			f.total += v
			if v > f.max {
				f.max, f.at = v, "stage "+s.Labels["stage"]+" set "+s.Labels["set"]
			}
		}
	}
	fmt.Fprintln(w)
	for i := range host.Series {
		s := &host.Series[i]
		line := fmt.Sprintf("state{switch=%s}  host %.1f KB at 4 B a register", s.Labels["switch"], s.Value/1024)
		if f := fills[s.Labels["switch"]]; f != nil && f.max > 0 {
			line += fmt.Sprintf("  registers %d admitted, fullest bank %d (%s)", f.total, f.max, f.at)
		}
		fmt.Fprintln(w, line)
	}
}
