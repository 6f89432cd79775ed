package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
)

// runOrch is the `newton-ctl plan` / `newton-ctl apply` entry: build a
// fleet of agents over in-memory pipes on the chosen topology, compute the
// network-wide plan (placement + per-switch budget admission), and
// either print the typed diff (plan) or drive it through the
// transactional deploy path (apply). -drain demonstrates re-admission:
// after the initial deploy, the named switch is drained, the plan is
// recomputed, and only the delta is applied.
func runOrch(cmd string, args []string) {
	fs := flag.NewFlagSet("newton-ctl "+cmd, flag.ExitOnError)
	var (
		ff    = addFleetFlags(fs)
		minW  = fs.Uint("min-width", 256, "minimum sketch row width (accuracy floor)")
		maxW  = fs.Uint("max-width", 4096, "maximum sketch row width")
		drain = fs.String("drain", "", "after the initial apply, drain this switch and apply the delta (apply only)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	f, orch := ff.build(nil, uint32(*minW), uint32(*maxW))
	defer f.Close()

	plan, diff, err := orch.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan (%d switches, %d stages/partition):\n%s\ndiff:\n%s",
		len(f.Names), plan.StagesPer, orchestrator.Summary(plan), diff)

	if cmd == "plan" {
		return
	}

	if err := orch.Apply(plan, diff); err != nil {
		log.Fatalf("apply: %v", err)
	}
	fmt.Println("\napplied:")
	printInstalls(f)

	if *drain != "" {
		fmt.Printf("\ndraining %s and re-planning:\n", *drain)
		orch.Drain(*drain)
		plan2, diff2, err := orch.Plan()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("diff:\n%s", diff2)
		if err := orch.Apply(plan2, diff2); err != nil {
			log.Fatalf("delta apply: %v", err)
		}
		fmt.Println("\napplied delta:")
		printInstalls(f)
	}
}

// fleetFlags are what plan, apply and status share: the topology, the
// queries and every switch's size.
type fleetFlags struct {
	topoSpec, queries *string
	stages, rules     *int
	arrays            *uint
}

func addFleetFlags(fs *flag.FlagSet) fleetFlags {
	return fleetFlags{
		topoSpec: fs.String("topology", "linear:3", "topology: linear:N, fattree:K, or isp"),
		queries:  fs.String("queries", "q1,q4", "comma-separated catalog queries (q1..q9), priority = listed order"),
		stages:   fs.Int("switch-stages", 8, "pipeline stages of each switch device"),
		arrays:   fs.Uint("registers", 1<<14, "state-bank registers per switch"),
		rules:    fs.Int("rules", 256, "rule capacity per module table"),
	}
}

// build stands up the fleet (agents over in-memory pipes, pushing
// telemetry when exp is set), an orchestrator over it, and one intent
// per listed query; zero widths leave the orchestrator's defaults.
func (ff fleetFlags) build(exp *telemetry.ExporterConfig, minW, maxW uint32) (*fleet.Fleet, *orchestrator.Orchestrator) {
	topo, _, _ := buildTopology(*ff.topoSpec)
	f, err := fleet.New(topo, fleet.Config{
		Net:      netsim.Config{Stages: *ff.stages, ArraySize: uint32(*ff.arrays)},
		Exporter: exp,
	})
	if err != nil {
		log.Fatal(err)
	}
	orch, err := orchestrator.New(orchestrator.Config{Topo: topo, Budgets: f.Budgets(*ff.rules)}, f.Ctl)
	if err != nil {
		log.Fatal(err)
	}
	var intents []orchestrator.Intent
	names := strings.Split(*ff.queries, ",")
	for i, name := range names {
		q, err := query.ByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		intents = append(intents, orchestrator.Intent{
			Query: q, Priority: len(names) - i, MinWidth: minW, MaxWidth: maxW,
		})
	}
	orch.SetIntents(intents)
	return f, orch
}

// printInstalls lists what each switch actually holds — the ground
// truth the plan is checked against.
func printInstalls(f *fleet.Fleet) {
	for _, name := range f.Names {
		eng := f.Switches[name].Node.Eng
		if eng.InstalledCount() == 0 {
			continue
		}
		fmt.Printf("  %-14s", name)
		for _, p := range eng.Programs() {
			fmt.Printf(" %s", p.Name)
		}
		fmt.Println()
	}
}
