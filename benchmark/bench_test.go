package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFloorRecoversBase is the reason every timing is a floor: with
// one-sided noise on top of a fixed cost, the 5th-smallest sample is the
// cost and the mean and the median are not.
func TestFloorRecoversBase(t *testing.T) {
	const base = 300.0
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A neighbour that is busy most of the time, how much differing
		// from run to run, adding up to 40% when it is, plus rare long
		// preemptions.
		busy := 0.6 + 0.3*rng.Float64()
		var v []float64
		for i := 0; i < 1000; i++ {
			x := base
			if rng.Float64() < busy {
				x += base * 0.4 * rng.Float64()
			}
			if rng.Float64() < 0.01 {
				x += base * 10 * rng.Float64()
			}
			v = append(v, x)
		}
		st := reduce(v)
		var sum float64
		for _, x := range v {
			sum += x
		}
		mean := sum / float64(len(v))
		if off := math.Abs(st.Floor-base) / base; off > 0.01 {
			t.Errorf("seed %d: floor %.2f is %.2f%% off the base %.0f", seed, st.Floor, 100*off, base)
		}
		if off := math.Abs(mean-base) / base; off <= 0.01 {
			t.Errorf("seed %d: the mean %.2f recovered the base; the noise model is too weak to test anything", seed, mean)
		}
		if off := math.Abs(st.P50-base) / base; off <= 0.01 {
			t.Errorf("seed %d: the median %.2f recovered the base; the noise model is too weak to test anything", seed, st.P50)
		}
	}
}

// TestThinSampleIsAnError: a series short of its minimum never reduces
// to a number.
func TestThinSampleIsAnError(t *testing.T) {
	s := &series{name: "x", min: 10}
	for i := 0; i < 9; i++ {
		s.add(float64(i))
	}
	if _, err := s.stats(); err == nil {
		t.Fatal("9 samples of 10 reduced without error")
	}
	s.add(9)
	if st, err := s.stats(); err != nil || st.Floor != 4 {
		t.Fatalf("10 samples: floor %v err %v, want the 5th-smallest (4)", st.Floor, err)
	}
	// Even with no minimum asked for, a 5th-smallest needs five samples.
	s = &series{name: "y"}
	s.add(1)
	if _, err := s.stats(); err == nil {
		t.Fatal("one sample reduced without error")
	}
}

// TestSeedDecidesThePacketSet: the same seed gives the same packets, a
// different seed different ones, always exactly the workload's count.
func TestSeedDecidesThePacketSet(t *testing.T) {
	for _, d := range workloads {
		a, b, c := generate(d, 7), generate(d, 7), generate(d, 8)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 twice gave packet sets %x and %x", d.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same packet set %x", d.name, a.hash)
		}
		if len(a.pkts) != d.packets || len(c.pkts) != d.packets {
			t.Errorf("%s: %d and %d packets, want %d", d.name, len(a.pkts), len(c.pkts), d.packets)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkMetrics(t *testing.T, workload string, specs []metricSpec, got map[string]metric) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics reported, %d specified", workload, len(got), len(specs))
	}
	for _, spec := range specs {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", workload, spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, spec.Name, m.Value)
		case m.Unit != spec.Unit || !unitRE.MatchString(m.Unit):
			t.Errorf("%s: %s has unit %q, want %q", workload, spec.Name, m.Unit, spec.Unit)
		}
		if !nameRE.MatchString(spec.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", spec.Name)
		}
		if spec.Better != "lower" && spec.Better != "higher" {
			t.Errorf("%s has direction %q", spec.Name, spec.Better)
		}
	}
}

// TestSmoke runs all four workloads end to end and traced with the
// smoke minimums: every metric must be there, finite and well-named,
// every output check must pass, and a run that cannot fill its series
// must fail rather than report.
func TestSmoke(t *testing.T) {
	for _, d := range workloads {
		r, err := runEndToEnd(d, 1, 0.6, smokeMins)
		if err != nil {
			t.Fatalf("%s end to end: %v", d.name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", d.name, r.Failed, r.Attempted, r.Failures)
		}
		checkMetrics(t, d.name, journeys, r.EndToEnd)
		for _, spec := range journeys {
			if r.EndToEnd[spec.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", d.name, spec.Name, r.EndToEnd[spec.Name].Value)
			}
		}

		tr, rec, err := runTraced(d, 1, 2, smokeMins, smokeMins)
		if err != nil {
			t.Fatalf("%s traced: %v", d.name, err)
		}
		if tr.Failed != 0 {
			t.Errorf("%s traced: %d operations failed: %v", d.name, tr.Failed, tr.Failures)
		}
		checkMetrics(t, d.name, perLayer, tr.PerLayer)
		for _, s := range rec.spans {
			if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start || !strings.HasPrefix(s.Trace, d.name+"/") {
				t.Fatalf("%s: malformed span %+v", d.name, s)
			}
		}
	}

	// Minimums nobody can reach in the time given: an error, not numbers.
	if _, err := runEndToEnd(workloadByName("churn"), 1, 0.01, mins{us: 1 << 30, ms: 10, long: 5}); err == nil {
		t.Error("a run with a thin series reported instead of failing")
	}
}

// TestVerdict covers -compare's four words and the calibration's spread.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "settle_ms", Better: "lower", Bound: 0.08}
	higher := metricSpec{Name: "pkts_per_s", Better: "higher", Bound: 0.08}
	for _, tc := range []struct {
		spec metricSpec
		a, b metric
		want string
	}{
		{lower, metric{Value: 10}, metric{Value: 10.5}, "same"},
		{lower, metric{Value: 10}, metric{Value: 11}, "worse"},
		{lower, metric{Value: 10}, metric{Value: 9}, "better"},
		{higher, metric{Value: 100}, metric{Value: 90}, "worse"},
		{higher, metric{Value: 100}, metric{Value: 110}, "better"},
		{lower, metric{Value: 10, Spread: 0.2}, metric{Value: 20}, "unresolved"},
		{metricSpec{Name: "deploy_ms", Better: "lower"}, metric{Value: 10}, metric{Value: 20}, "ungated"},
	} {
		if _, got := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.spec.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := interquartile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 5.5 {
		t.Errorf("interquartile(1..10) = %v, want 5.5", got)
	}
	var buf bytes.Buffer
	if err := compareFiles(&buf, "baseline/HEAD.json", "baseline/HEAD.json"); err != nil {
		t.Fatalf("comparing the baseline with itself: %v", err)
	}
	if strings.Contains(buf.String(), "worse") || strings.Contains(buf.String(), "better") {
		t.Errorf("the baseline differs from itself:\n%s", buf.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repo root to the Go
// specs, both to the harness's limits, and the bounds to the ones the
// committed calibration derived.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end, %d per-layer; the specs have %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(buf) > 64<<10 {
		t.Error("BENCHMARK.json is outside the harness's limits")
	}
	for i, d := range workloads {
		if w := doc.Workloads[i]; w.Name != d.name || w.Why != d.why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v does not match %s", i, w, d.name)
		}
	}
	sawSetup := false
	for i, s := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != s.Name || e.Unit != s.Unit || e.Better != s.Better || e.Bound != s.Bound {
			t.Errorf("end-to-end %d: %+v does not match %+v", i, e, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		sawSetup = sawSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	// Bounds are copied from the calibration, not chosen: a journey gates
	// at exactly the bound baseline/HEAD.json records for it, and a timing
	// whose calibrated bound passes maxTimingBound does not gate at all.
	base, err := os.ReadFile("baseline/HEAD.json")
	if err != nil {
		t.Fatal(err)
	}
	var cal baseline
	if err := json.Unmarshal(base, &cal); err != nil {
		t.Fatal(err)
	}
	for _, j := range journeys {
		want, ok := cal.Bounds[j.Name]
		if !ok {
			t.Errorf("%s: no calibrated bound in baseline/HEAD.json", j.Name)
			continue
		}
		if isTiming(j.Name) && j.Name != "setup_s" && want > maxTimingBound {
			want = 0
		}
		if math.Abs(j.Bound-want) > 1e-9 {
			t.Errorf("%s: bound %v, the calibration derives %v (0: does not gate)", j.Name, j.Bound, want)
		}
	}
	seen := map[string]bool{}
	for i, s := range perLayer {
		if p := doc.PerLayer[i]; p.Name != s.Name || p.Unit != s.Unit || p.Better != s.Better {
			t.Errorf("per-layer %d: %+v does not match %+v", i, p, s)
		}
		if seen[s.Name] || specOf(endToEnd, s.Name).Name != "" {
			t.Errorf("metric name %s used twice", s.Name)
		}
		seen[s.Name] = true
	}
}
