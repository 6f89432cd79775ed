package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is (max-min)/median over the runs a calibration folded
	// into Value; absent on a single run.
	Spread float64 `json:"spread,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	PacketHash string            `json:"packet_hash"`
	Cycles     int               `json:"cycles"`
	Samples    map[string]int    `json:"samples"`
	Attempted  int               `json:"ops_attempted"`
	Failed     int               `json:"ops_failed"`
	Failures   []string          `json:"failures,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

// setupShare is the share of a run's measuring time that set-up
// samples beyond the minimum may take.
const setupShare = 0.15

// warmPackets is how much of the packet set a set-up's one warm cycle
// processes: enough to force the lazy classifier compile and fill some
// banks, small enough that set-up is not a packet benchmark.
const warmPackets = 1024

// setupOnce builds a fresh fleet, converges the base intents and drives
// one warm cycle to the first settled epoch, timed end to end. The
// teardown is not part of the sample.
func setupOnce(d *dials, l *load, seed int64) (float64, error) {
	start := time.Now()
	f, err := newFleet(d, seed)
	if err != nil {
		return 0, err
	}
	defer f.close()
	c := newCycler(d, f, l, nil, mins{})
	for _, n := range f.nodes {
		for _, p := range l.pkts[:min(warmPackets, len(l.pkts))] {
			n.sw.Process(p)
		}
		n.exp.Export(n.sw.DrainReports())
	}
	_, ok := c.roll(nil)
	el := time.Since(start).Seconds()
	if !ok || c.failed > 0 {
		return 0, fmt.Errorf("set-up's warm cycle did not settle: %v", c.failures)
	}
	return el, nil
}

// liveHeapMB is the heap still reachable after two collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// finalChecks are the end-of-run output checks on the fleet's own
// accounting.
func (c *cycler) finalChecks() {
	for _, n := range c.f.nodes {
		c.attempted++
		if st := n.exp.Stats(); st.Dropped != 0 {
			c.fail("exporter %s dropped %d reports under PolicyBlock", n.name, st.Dropped)
		}
		if dropped := n.sw.Counters().Dropped; dropped != 0 {
			c.failed += int(dropped)
			c.fail("switch %s dropped %d packets", n.name, dropped)
		}
	}
	c.attempted++
	if st := c.f.svc.Stats(); st.SubscriberDrops != 0 {
		c.fail("the subscription lost %d events", st.SubscriberDrops)
	}
}

// runEndToEnd is the untraced run: set-up samples on fresh fleets, then
// one fleet driven through the cycle for the given time.
func runEndToEnd(d *dials, seed int64, seconds float64, m mins) (*result, error) {
	l := generate(d, seed)
	// Set-ups: the minimum count, and then more while they fit in a
	// share of the run — a cheap set-up is mostly kernel round trips with
	// a wide spread, and its 5th-smallest only settles with a few hundred
	// samples. Every set-up starts from a collected heap, as a fresh
	// process would, and the collector stays off while it is timed: a
	// cycle that happens to start inside a 5 ms set-up doubles it, and
	// whether one does is the luck of the pacer, not the cost of the code.
	setup := &series{name: "setup_s", min: m.long}
	budget := time.Duration(seconds * setupShare * float64(time.Second))
	for start := time.Now(); len(setup.v) < m.long ||
		(len(setup.v) < 4*m.long && time.Since(start) < budget); {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		s, err := setupOnce(d, l, seed)
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, err
		}
		setup.add(s)
	}
	f, err := newFleet(d, seed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	c := newCycler(d, f, l, nil, m)
	c.warmUp()
	c.measure(time.Duration(seconds*float64(time.Second)), true)
	c.finalChecks()
	heap := liveHeapMB()

	r := c.result(seed, false)
	e := map[string]float64{"live_heap_mb": heap,
		"wire_bytes_per_epoch": median(c.s.wireBytes), "allocs_per_epoch": median(c.s.allocs)}
	r.Samples["wire_bytes_per_epoch"], r.Samples["allocs_per_epoch"], r.Samples["live_heap_mb"] =
		len(c.s.wireBytes), len(c.s.allocs), 1
	st, err := setup.stats()
	if err != nil {
		return nil, err
	}
	e["setup_s"] = st.Floor
	r.Samples["setup_s"] = st.N
	if err := c.s.timings(e, nil, r.Samples); err != nil {
		return nil, fmt.Errorf("%w (failed operations: %v)", err, c.failures)
	}
	r.EndToEnd = map[string]metric{}
	for _, spec := range journeys {
		v, ok := e[spec.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s was not measured", d.name, spec.Name)
		}
		r.EndToEnd[spec.Name] = metric{Value: v, Unit: spec.Unit}
	}
	return r, nil
}

// result starts a result from the cycler's bookkeeping.
func (c *cycler) result(seed int64, traced bool) *result {
	return &result{Workload: c.d.name, Seed: seed, Traced: traced,
		PacketHash: fmt.Sprintf("%016x", c.l.hash), Cycles: int(c.cycle),
		Samples: map[string]int{}, Attempted: c.attempted, Failed: c.failed, Failures: c.failures}
}

// timings reduces the series to the six timed end-to-end floors (into
// floors) and their medians and tails (into extras, when not nil), in
// the metrics' own units.
func (s *samples) timings(floors, extras map[string]float64, counts map[string]int) error {
	put := func(name string, st stats, scale func(float64) float64) {
		floors[name] = scale(st.Floor)
		counts[name] = st.N
		if extras != nil {
			extras[name+".p50"], extras[name+".tail"] = scale(st.P50), scale(st.Tail)
		}
	}
	same := func(x float64) float64 { return x }
	perSecond := func(ns float64) float64 { return 1e9 / ns }
	for _, row := range []struct {
		name  string
		from  map[string]*series
		scale func(float64) float64
	}{
		{"pkts_per_s", s.pktNs, perSecond},
		{"settle_ms", s.settleMs, same},
		{"deploy_ms", s.deployMs, same},
		{"intent_ms", s.intentMs, same},
		{"alert_us", map[string]*series{"": s.alertUs}, same},
		{"read_us", map[string]*series{"": s.readUs}, same},
	} {
		st, err := overKinds(row.from)
		if err != nil {
			return err
		}
		put(row.name, st, row.scale)
	}
	return nil
}

// Traced-run shape: three quarters of the time go to the cycle, in
// segments that alternate untraced and traced so that both see the same
// weather (the untraced segments are the baseline the tracing overhead
// is measured against), and the isolated layer timings come on top. The
// cycle's segments are short, so their sample minimums are lower than
// the gated run's; the isolated timings keep the full minimums.
const (
	tracedShare    = 0.75
	tracedSegments = 4
)

var tracedMins = mins{us: 250, ms: 100, long: 20}

// runTraced is the traced run: the same cycle with spans recorded
// around every call into a layer, the fleet's counters, and the layer
// functions timed in isolation.
func runTraced(d *dials, seed int64, seconds float64, cyc, lay mins) (*result, *recorder, error) {
	l := generate(d, seed)
	f, err := newFleet(d, seed)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	c := newCycler(d, f, l, nil, cyc)
	c.warmUp()
	// The untraced baseline needs a packet floor and nothing else.
	base, traced := newSamples(d, mins{us: floorRank, ms: floorRank, long: floorRank}, c.replicated), c.s
	rec := newRecorder()
	total := time.Duration(seconds * tracedShare * float64(time.Second))
	var mem [2]runtime.MemStats
	var tracedMallocs, tracedGCs, tracedPkts uint64
	for start := time.Now(); ; {
		c.s, c.rec = base, nil
		c.measure(total/tracedSegments, false)
		c.s, c.rec = traced, rec
		runtime.ReadMemStats(&mem[0])
		pkts0, _ := c.dispatchCounts()
		c.measure(total/tracedSegments, false)
		pkts1, _ := c.dispatchCounts()
		runtime.ReadMemStats(&mem[1])
		tracedMallocs += mem[1].Mallocs - mem[0].Mallocs
		tracedGCs += uint64(mem[1].NumGC - mem[0].NumGC)
		tracedPkts += pkts1 - pkts0
		if el := time.Since(start); el >= 3*total || (el >= total && traced.full()) || c.maxQID >= qidBudget {
			break
		}
	}
	c.rec = nil
	c.finalChecks()

	r := c.result(seed, true)
	p := map[string]float64{"trace.generate_s": l.generateS}
	// The floors of the journeys land in p too: the ones that do not gate
	// are per-layer metrics.
	if err := traced.timings(p, p, r.Samples); err != nil {
		return nil, nil, err
	}
	basePkt, err := overKinds(base.pktNs)
	if err != nil {
		return nil, nil, err
	}
	tracedPkt, err := overKinds(traced.pktNs)
	if err != nil {
		return nil, nil, err
	}
	p["span.overhead_pct"] = 100 * (tracedPkt.Floor - basePkt.Floor) / basePkt.Floor
	p["runtime.gc_cycles"] = float64(tracedGCs)
	p["runtime.allocs_per_pkt"] = float64(tracedMallocs) / math.Max(1, float64(tracedPkts))
	c.counters(p)
	c.spanMetrics(rec, p)

	layers, err := timeLayers(d, l, f, lay)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range layers {
		p[k] = v
	}
	r.PerLayer = map[string]metric{}
	for _, spec := range perLayer {
		v, ok := p[spec.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: %s was not measured", d.name, spec.Name)
		}
		r.PerLayer[spec.Name] = metric{Value: v, Unit: spec.Unit}
	}
	return r, rec, nil
}

// counters reads the counts each layer keeps about itself.
func (c *cycler) counters(p map[string]float64) {
	var scans, dropped, retries, ringDropped, overflows uint64
	var frames, delta, key, compressed uint64
	for _, n := range c.f.nodes {
		scans += n.eng.Layout().TernaryScans()
		dropped += n.sw.Counters().Dropped
		retries += n.cli.Counters().Retries
		st := n.exp.Stats()
		ringDropped, overflows = ringDropped+st.Dropped, overflows+st.Overflows
		if w, ok := c.f.svc.AgentWire(n.name); ok {
			frames, compressed = frames+w.Frames, compressed+w.CompressedFrames
			delta, key = delta+w.DeltaFrames, key+w.KeyframeFrames
		}
	}
	ratio := func(a, b uint64) float64 { return float64(a) / math.Max(1, float64(b)) }
	st := c.f.svc.Stats()
	p["dataplane.dropped"] = float64(dropped)
	p["modules.dispatch_miss_ratio"] = float64(c.s.misses) / math.Max(1, float64(c.s.pkts))
	p["modules.ternary_scans"] = float64(scans)
	p["rpc.retries"] = float64(retries)
	p["telemetry.ring_dropped"] = float64(ringDropped)
	p["telemetry.ring_overflows"] = float64(overflows)
	p["telemetry.dup_alert_ratio"] = ratio(st.DuplicateAlerts, st.Reports)
	p["telemetry.sub_dropped"] = float64(st.SubscriberDrops)
	p["telemetry.partial_epochs"] = float64(st.PartialEpochs)
	p["telemetry.epoch_gaps"] = float64(st.EpochGaps)
	p["wire.delta_frame_ratio"] = ratio(delta, delta+key)
	p["wire.compressed_frame_ratio"] = ratio(compressed, frames)
}

// spanMetrics reduces the span log: each cycle span's time per cycle
// (floor and median) — the ten tile the cycle, so the figures say where
// a cycle goes — and the per-call cost of the layer calls the cycle
// makes directly. The layer calls inside a cycle span are its children
// in the log, which carries every span's self time.
func (c *cycler) spanMetrics(rec *recorder, p map[string]float64) {
	floorOf := func(v []float64, scale float64) (float64, float64) {
		if len(v) < floorRank {
			return 0, 0 // the workload never reaches this span
		}
		st := reduce(v)
		return st.Floor / scale, st.P50 / scale
	}
	// A workload with quiet cycles has two kinds of cycle, and its probe
	// cycles carry a short packet step: the steps' spans are reduced over
	// the quiet cycles, the intent's over the probe cycles they occur in.
	var probes map[string]bool
	if c.d.quiet {
		probes = rec.cyclesWith("span.intent.plan")
	}
	for _, name := range cycleSpans {
		ns, _ := rec.perCycle(name, probes)
		if strings.HasPrefix(name, "span.intent.") {
			ns, _ = rec.perCycle(name, nil)
		}
		p[name], p[name+".p50"] = floorOf(ns, 1e3)
	}
	p["dataplane.process_ns"], _ = floorOf(rec.perOp("dataplane.process"), 1)
	p["dataplane.drain_reports_ns"], _ = floorOf(rec.perOp("dataplane.drain_reports"), 1)
	p["telemetry.export_epoch_us"], _ = floorOf(rec.perOp("span.roll.export_epoch"), 1e3)
	p["telemetry.estimate_ns"], _ = floorOf(rec.perOp("telemetry.estimate"), 1)
	p["telemetry.observed_accuracy_us"], _ = floorOf(rec.perOp("telemetry.observed_accuracy"), 1e3)
	p["orchestrator.apply_us"], _ = floorOf(rec.durations("span.intent.apply"), 1e3)

	// Export cost per report: ring put plus the wait for the writer to
	// put the batch on the wire, over the reports of the cycle.
	export, reports := rec.perCycle("telemetry.export", nil)
	flush, _ := rec.perCycle("telemetry.flush", nil)
	var perReport []float64
	for i := range export {
		if i < len(flush) && reports[i] > 0 {
			perReport = append(perReport, (export[i]+flush[i])/reports[i])
		}
	}
	p["telemetry.export_ns_per_report"], _ = floorOf(perReport, 1)

	// One converge is a plan plus an apply.
	plan, apply := rec.durations("span.intent.plan"), rec.durations("span.intent.apply")
	var converge []float64
	for i := range plan {
		if i < len(apply) {
			converge = append(converge, plan[i]+apply[i])
		}
	}
	p["orchestrator.converge_us"], _ = floorOf(converge, 1e3)
}
