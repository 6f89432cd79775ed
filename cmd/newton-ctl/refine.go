package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/newton-net/newton/internal/experiments"
)

// runRefine drives the closed-loop adaptive-accuracy demo: one
// accuracy-declared intent under a calm -> surge -> calm Zipf SYN
// workload, with the refiner walking the width ladder from the
// analyzer's per-epoch error bounds. It prints the per-round
// target-vs-observed trajectory, each resize decision, and the
// memory spent relative to static worst-case provisioning.
func runRefine(args []string) {
	fs := flag.NewFlagSet("refine", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Parse(args)

	res := experiments.Adaptive(experiments.AdaptiveConfig{Seed: *seed})
	fmt.Print(res)
	if !res.Passed() {
		log.SetFlags(0)
		log.Println("newton-ctl refine: closed-loop properties violated")
		os.Exit(1)
	}
}
