package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// smokeMins are the -short minimums: enough samples for a 5th-smallest
// to exist, not enough for it to mean anything.
var smokeMins = mins{us: 20, ms: 6, long: 5}

// envStamp says where and on what a result was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	When       string `json:"when"`
}

func stamp(seed int64) envStamp {
	e := envStamp{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
		When: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close() // read only
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// baseline is what -calibrate writes to baseline/HEAD.json: an output
// whose values are medians over runs, and the bound each metric's
// calibrated spread derives. -compare reads it like any other output.
type baseline struct {
	output
	Bounds map[string]float64 `json:"bounds"`
}

func readOutput(path string) (*output, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o output
	if err := json.Unmarshal(buf, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &o, nil
}

// verdict judges value b against a for one journey. A journey without a
// bound is ungated: its ratio is printed and nothing is decided. The
// change is unresolved when either side's own run-to-run spread is
// wider than the bound: then the bound cannot tell a regression from
// noise. It is worse or better only past the bound; anything inside is
// the same.
func verdict(spec metricSpec, a, b metric) (ratio float64, word string) {
	ratio = b.Value / a.Value
	worsening := ratio - 1
	if spec.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case spec.Bound == 0:
		word = "ungated"
	case math.Max(a.Spread, b.Spread) > spec.Bound:
		word = "unresolved"
	case worsening > spec.Bound:
		word = "worse"
	case worsening < -spec.Bound:
		word = "better"
	default:
		word = "same"
	}
	return ratio, word
}

// compareFiles prints, per workload and journey, both values,
// the ratio with its base, the bound and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readOutput(pathA)
	if err != nil {
		return err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s: commit %s, %s, %s x%d, GOMAXPROCS %d, seed %d\n", pathA,
		a.Env.Commit, a.Env.GoVersion, a.Env.CPU, a.Env.NumCPU, a.Env.GOMAXPROCS, a.Env.Seed)
	fmt.Fprintf(w, "change %s: commit %s, %s, %s x%d, GOMAXPROCS %d, seed %d\n", pathB,
		b.Env.Commit, b.Env.GoVersion, b.Env.CPU, b.Env.NumCPU, b.Env.GOMAXPROCS, b.Env.Seed)
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %18s %7s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, spec := range endToEnd {
				ma, oka := ra.EndToEnd[spec.Name]
				mb, okb := rb.EndToEnd[spec.Name]
				if !oka || !okb {
					continue
				}
				ratio, word := verdict(spec, ma, mb)
				fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %8.4f of %-7.4g %6.0f%%  %s\n", ra.Workload, spec.Name,
					ma.Value, mb.Value, ratio, ma.Value, 100*spec.Bound, word)
			}
		}
	}
	return nil
}

// calibrateAll runs every workload 2n times, each run in a process of
// its own as the harness does: n runs on one seed, which show the host's
// noise alone, and n runs on n seeds, which show what the harness sees —
// noise and the difference between packet sets. The two kinds alternate,
// so both see the same weather. It writes the tables of values, spreads
// and derived bounds to CALIBRATION.md, and the seeds round's medians,
// with the derived bounds, to baseline/HEAD.json, both beside go.mod.
func calibrateAll(n int, seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", "calibrate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var md strings.Builder
	base := baseline{output: output{Env: stamp(seed)}, Bounds: map[string]float64{}}
	runOnce := func(d *dials, seed int64, tag string) (*result, error) {
		path := filepath.Join(tmp, fmt.Sprintf("%s-%s.json", d.name, tag))
		cmd := exec.Command(self, "-workload", d.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-out", path)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil { // Run waits for the child to end
			return nil, fmt.Errorf("%s run %s: %w", d.name, tag, err)
		}
		o, err := readOutput(path)
		if err != nil {
			return nil, err
		}
		base.Env.GOMAXPROCS = o.Env.GOMAXPROCS // the runs', not this parent's
		return &o.Workloads[0], nil
	}

	fmt.Fprintf(&md, "# Calibration\n\n%d + %d runs per workload, %gs each, one process per run, alternating, on %s x%d, %s.\n\n"+
		"**one seed** is %d runs on seed %d: the host's noise alone. **seeds** is one run on each of seeds %d..%d: what the\n"+
		"harness sees, noise and the difference between packet sets.\n\n"+
		"range = (max-min)/median; iqr = (Q3-Q1)/median with the quartiles of Python's\n"+
		"`statistics.quantiles(values, n=4)`, the spread the harness computes.\n\n"+
		"Bound rule: 3 x the wider of a metric's two iqrs, rounded up to a whole percent, at least %.0f%% for a\n"+
		"timing and %.0f%% for a count. A metric's bound in `BENCHMARK.json` is its largest derived bound over the\n"+
		"four workloads. A timing whose bound would pass %.0f%% does not gate: it is reported per layer.\n"+
		"`setup_s` must gate (the harness requires it) and is told to take the largest bound, so it alone is\n"+
		"capped at the harness's %.0f%% instead.\n",
		n, n, seconds, base.Env.CPU, base.Env.NumCPU, base.Env.GoVersion,
		n, seed, seed, seed+int64(n)-1,
		100*minTimingBound, 100*minCountBound, 100*maxTimingBound, 100*maxBound)
	for _, d := range workloads {
		var same, seeds []*result
		for i := 0; i < n; i++ {
			r, err := runOnce(d, seed, fmt.Sprintf("same-%d", i))
			if err != nil {
				return err
			}
			same = append(same, r)
			if r, err = runOnce(d, seed+int64(i), fmt.Sprintf("seed-%d", i)); err != nil {
				return err
			}
			seeds = append(seeds, r)
			fmt.Fprintf(os.Stderr, "calibrate: %s %d/%d done\n", d.name, i+1, n)
		}
		folded := result{Workload: d.name, Seed: seed, EndToEnd: map[string]metric{}, Samples: seeds[0].Samples}
		fmt.Fprintf(&md, "\n## %s\n", d.name)
		iqrs := map[string]float64{}
		for _, round := range []struct {
			title string
			runs  []*result
		}{{"one seed", same}, {"seeds", seeds}} {
			fmt.Fprintf(&md, "\n%s\n\n| metric | unit |", round.title)
			for i := range round.runs {
				fmt.Fprintf(&md, " run %d |", i+1)
			}
			md.WriteString(" median | range | iqr |\n|---|---|" + strings.Repeat("---|", n+3) + "\n")
			for _, spec := range journeys {
				var vals []float64
				fmt.Fprintf(&md, "| %s | %s |", spec.Name, spec.Unit)
				for _, r := range round.runs {
					v := r.EndToEnd[spec.Name].Value
					vals = append(vals, v)
					fmt.Fprintf(&md, " %.5g |", v)
				}
				sort.Float64s(vals)
				med := median(vals)
				spread, iqr := (vals[len(vals)-1]-vals[0])/med, interquartile(vals)/med
				fmt.Fprintf(&md, " %.5g | %.2f%% | %.2f%% |\n", med, 100*spread, 100*iqr)
				iqrs[spec.Name] = math.Max(iqrs[spec.Name], iqr)
				if round.title == "seeds" {
					folded.EndToEnd[spec.Name] = metric{Value: med, Unit: spec.Unit, Spread: spread}
				}
			}
		}
		md.WriteString("\n| metric | wider iqr | derived bound |\n|---|---|---|\n")
		for _, spec := range journeys {
			bound := derivedBound(spec, iqrs[spec.Name])
			base.Bounds[spec.Name] = math.Max(base.Bounds[spec.Name], bound)
			fmt.Fprintf(&md, "| %s | %.2f%% | %.0f%% |\n", spec.Name, 100*iqrs[spec.Name], 100*bound)
		}
		base.Workloads = append(base.Workloads, folded)
	}
	md.WriteString("\n## Bounds\n\n| metric | largest derived bound | gates |\n|---|---|---|\n")
	for _, spec := range journeys {
		b := base.Bounds[spec.Name]
		gates := "yes"
		if isTiming(spec.Name) && spec.Name != "setup_s" && b > maxTimingBound {
			gates = "no: per layer"
		}
		fmt.Fprintf(&md, "| %s | %.0f%% | %s |\n", spec.Name, 100*b, gates)
	}
	if err := os.WriteFile("CALIBRATION.md", []byte(md.String()), 0o644); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding the baseline: %w", err)
	}
	if err := os.MkdirAll("baseline", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("baseline", "HEAD.json"), append(buf, '\n'), 0o644)
}

// interquartile is Q3-Q1 of sorted values, with the quartiles of
// Python's statistics.quantiles(values, n=4): the spread the harness
// judges a benchmark's steadiness by.
func interquartile(sorted []float64) float64 {
	q := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		i := int(pos)
		switch {
		case i < 1:
			return sorted[0]
		case i >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return q(0.75) - q(0.25)
}

// The bound rule's constants.
const (
	minTimingBound = 0.05
	minCountBound  = 0.02
	maxTimingBound = 0.10 // a timing that needs more does not gate
	maxBound       = 0.25 // the harness's own limit
)

func isTiming(name string) bool {
	for _, t := range timedJourneys {
		if t == name {
			return true
		}
	}
	return false
}

// derivedBound is the bound rule applied to one calibrated spread:
// three times the spread, rounded up to a whole percent, no less than
// 5% for a timing and 2% for a count, no more than the harness's 25%.
func derivedBound(spec metricSpec, iqr float64) float64 {
	floor := minCountBound
	if isTiming(spec.Name) {
		floor = minTimingBound
	}
	return math.Min(maxBound, math.Max(floor, math.Ceil(300*iqr-1e-9)/100))
}
