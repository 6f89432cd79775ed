// Command benchmark is Newton's performance spine: it builds a real
// in-process fleet over host-loopback TCP, drives it in a closed loop
// from one goroutine through the packet's journey and the intent's, and
// reports ten end-to-end numbers per workload — every timing the
// 5th-smallest of identical fixed-work samples under GOMAXPROCS=1 —
// plus, on the traced run, where each layer spends them. README.md in
// this directory defines every metric.
//
//	go run . -seed 1                          all four workloads, end to end
//	go run . -workload flood -trace 1         one workload, traced, per-layer
//	go run . -calibrate 10                    write CALIBRATION.md and baseline/HEAD.json
//	go run . -compare a.json b.json           judge b against a
//
// (run from this directory: the benchmark is its own module).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// output is what -out writes and -compare reads.
type output struct {
	Env       envStamp `json:"env"`
	Workloads []result `json:"workloads"`
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	spansPath string
	outPath   string
	short     bool
	calibrate int
	compare   bool
}

func main() {
	var o options
	trace := flag.Int("trace", 0, "1 = traced run: spans, counters and isolated layer timings; prints per-layer metrics")
	flag.StringVar(&o.workload, "workload", "", "workload to run: steady, flood, epoch-storm, churn ('' = all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the packet sets are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long each workload's cycle loop measures")
	flag.StringVar(&o.spansPath, "spans", "", "with -trace 1, write the span log here as JSON")
	flag.StringVar(&o.outPath, "out", "", "write the full result here as JSON")
	flag.BoolVar(&o.short, "short", false, "smoke run: tiny sample minimums, numbers not comparable")
	flag.IntVar(&o.calibrate, "calibrate", 0, "run every workload this many times on one seed and on as many seeds, and write CALIBRATION.md and baseline/HEAD.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments")
	flag.Parse()
	o.traced = *trace == 1
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if o.calibrate > 0 {
		return calibrateAll(o.calibrate, o.seed, o.seconds)
	}
	var chosen []*dials
	if o.workload == "" {
		chosen = workloads
	} else if d := workloadByName(o.workload); d != nil {
		chosen = []*dials{d}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	// One driver goroutine, one P: cross-core wake-ups are the noise the
	// floor cannot remove, so they are not allowed to happen.
	runtime.GOMAXPROCS(1)
	m, lay := fullMins, fullMins
	if o.short {
		m, lay = smokeMins, smokeMins
	}
	out := output{Env: stamp(o.seed)}
	var spans []span
	for _, d := range chosen {
		var r *result
		var err error
		if o.traced {
			cyc := tracedMins
			if o.short {
				cyc = smokeMins
			}
			var rec *recorder
			if r, rec, err = runTraced(d, o.seed, o.seconds, cyc, lay); err == nil {
				spans = append(spans, rec.spans...)
			}
		} else {
			r, err = runEndToEnd(d, o.seed, o.seconds, m)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		out.Workloads = append(out.Workloads, *r)
		printResult(r)
	}
	if o.spansPath != "" {
		if err := (&recorder{spans: spans}).write(o.spansPath); err != nil {
			return err
		}
	}
	if o.outPath != "" {
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding the result: %w", err)
		}
		if err := os.WriteFile(o.outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The last line of standard output is the run's verdict as one JSON
	// object, summed over the workloads run.
	last, correct := driverLine(out.Workloads)
	fmt.Println(last)
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// driverLine folds the workloads' results into the one-line form the
// harness reads: correct, attempted, failed and the metrics by name.
// With several workloads the metric names are prefixed with the
// workload's.
func driverLine(rs []result) (string, bool) {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.Workload + "/"
		}
		for _, spec := range endToEnd { // the journeys that do not gate are measured here too, and printed above
			if v, ok := r.EndToEnd[spec.Name]; ok {
				line.Metrics[prefix+spec.Name] = metric{Value: v.Value, Unit: v.Unit}
			}
		}
		for k, v := range r.PerLayer {
			line.Metrics[prefix+k] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	line.Correct = line.Failed == 0
	buf, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(buf), line.Correct
}

// printResult prints one workload's metrics by name and unit.
func printResult(r *result) {
	fmt.Printf("== %s (seed %d, %d cycles, packet set %s) ops %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Cycles, r.PacketHash, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
	for _, spec := range journeys {
		if v, ok := r.EndToEnd[spec.Name]; ok {
			gate := fmt.Sprintf("gates at %.0f%%", 100*spec.Bound)
			if spec.Bound == 0 {
				gate = "does not gate"
			}
			fmt.Printf("   %-36s %14.4f %-7s (%s is better, n=%d, %s)\n", spec.Name, v.Value, v.Unit, spec.Better, r.Samples[spec.Name], gate)
		}
	}
	for _, spec := range perLayer {
		if v, ok := r.PerLayer[spec.Name]; ok {
			fmt.Printf("   %-36s %14.4f %-7s (%s is better)\n", spec.Name, v.Value, v.Unit, spec.Better)
		}
	}
}
