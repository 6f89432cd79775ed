// newton-bench regenerates the paper's evaluation tables and figures
// from the command line.
//
// Usage:
//
//	newton-bench -list
//	newton-bench -run all
//	newton-bench -run fig12,fig15 -flows 2000 -trials 100
//	newton-bench -run fig17deploy -json bench.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/experiments"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/version"
)

// jsonRecord is one experiment's machine-readable result, written by
// -json so CI can archive numbers across PRs.
type jsonRecord struct {
	Experiment string             `json:"experiment"`
	Seconds    float64            `json:"seconds"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Output     string             `json:"output"`
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "all", "comma-separated experiments to run, or 'all'")
		trials   = flag.Int("trials", 100, "trials for fig11")
		flows    = flag.Int("flows", 3000, "background flows for trace-driven experiments")
		dur      = flag.Duration("duration", 500*time.Millisecond, "trace duration (virtual time)")
		hops     = flag.Int("hops", 5, "maximum hop count for fig13")
		workers  = flag.Int("workers", 0, "default delivery worker lanes for trace-driven experiments (0 = GOMAXPROCS)")
		fseed    = flag.Int64("fault-seed", 1, "seed for the chaos and soak experiments' fault injection")
		soakSw   = flag.Int("soak-switches", 0, "soak fleet size (0 = default)")
		soakRds  = flag.Int("soak-rounds", 0, "soak churn rounds (0 = default)")
		soakTen  = flag.Int("soak-tenants", 0, "soak tenant count (0 = default)")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file")
		showVers = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVers {
		fmt.Println(version.String("newton-bench"))
		return
	}

	if *workers > 0 {
		netsim.SetDefaultWorkers(*workers)
	}

	suite := map[string]func() fmt.Stringer{
		"adaptive": func() fmt.Stringer { return experiments.Adaptive(experiments.AdaptiveConfig{Seed: *fseed}) },
		"chaos":    func() fmt.Stringer { return experiments.ChaosRecovery(experiments.ChaosConfig{Seed: *fseed}) },
		"soak": func() fmt.Stringer {
			return experiments.Soak(experiments.SoakConfig{
				Seed: *fseed, Switches: *soakSw, Rounds: *soakRds, Tenants: *soakTen,
			})
		},
		"export":      func() fmt.Stringer { return experiments.ExportOverhead(3, *dur) },
		"table3":      func() fmt.Stringer { return experiments.Table3() },
		"ablation":    func() fmt.Stringer { return experiments.Ablation() },
		"fig10":       func() fmt.Stringer { return experiments.Fig10Interruption(2000, 40, 20000) },
		"fig11":       func() fmt.Stringer { return experiments.Fig11OperationDelay(*trials) },
		"fig12":       func() fmt.Stringer { return experiments.Fig12Overhead(*flows, *dur) },
		"fig13":       func() fmt.Stringer { return experiments.Fig13CQEOverhead(*hops) },
		"fig14":       func() fmt.Stringer { return experiments.Fig14Accuracy(nil, 3) },
		"fig15":       func() fmt.Stringer { return experiments.Fig15Compilation() },
		"fig16":       func() fmt.Stringer { return experiments.Fig16Multiplexing(nil) },
		"fig17":       func() fmt.Stringer { return experiments.Fig17Placement() },
		"fig17deploy": func() fmt.Stringer { return experiments.Fig17Deploy() },
		"throughput-scaling": func() fmt.Stringer {
			return experiments.ThroughputScaling(2000, 400*time.Millisecond, []int{1, 2, 4, 8})
		},
	}
	names := make([]string, 0, len(suite))
	for n := range suite {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list {
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	selected := names
	if *run != "all" {
		selected = strings.Split(*run, ",")
	}
	var records []jsonRecord
	for _, name := range selected {
		name = strings.TrimSpace(name)
		exp, ok := suite[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "newton-bench: unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		start := time.Now()
		result := exp()
		elapsed := time.Since(start)
		fmt.Printf("=== %s (took %v) ===\n%s\n", name, elapsed.Round(time.Millisecond), result)
		if *jsonPath != "" {
			rec := jsonRecord{Experiment: name, Seconds: elapsed.Seconds(), Output: result.String()}
			if m, ok := result.(interface{ Metrics() map[string]float64 }); ok {
				rec.Metrics = m.Metrics()
			}
			records = append(records, rec)
		}
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "newton-bench: %v\n", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "newton-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "newton-bench: wrote %d records to %s\n", len(records), *jsonPath)
	}
}
