package main

// metricSpec names one metric the benchmark reports. BENCHMARK.json at
// the repo root lists the same names, units, directions and bounds;
// TestBenchmarkJSON (bench_test.go) holds the two together, and both to
// the bounds the last calibration derived (baseline/HEAD.json).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // gated metrics only: allowed worsening, as a share of the parent's median
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

// journeys are the ten numbers a user of the system feels. Every
// workload measures all ten on the untraced run, and -calibrate tables
// all ten. A bound is the largest one the calibration derived for the
// metric on any workload (CALIBRATION.md has the rule and the table). A
// timing whose derived bound passes 10% would let a real regression
// through, so it does not gate: it has no bound here and is reported
// with the per-layer metrics. setup_s is the exception the harness
// makes: it must gate, and takes the largest bound.
var journeys = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pkts_per_s", Unit: "pkts/s", Better: "higher"},
	{Name: "alert_us", Unit: "us", Better: "lower"},
	{Name: "settle_ms", Unit: "ms", Better: "lower"},
	{Name: "read_us", Unit: "us", Better: "lower"},
	{Name: "deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "intent_ms", Unit: "ms", Better: "lower"},
	{Name: "wire_bytes_per_epoch", Unit: "B", Better: "lower", Bound: 0.07},
	{Name: "allocs_per_epoch", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.12},
}

// endToEnd are the journeys that gate: what the untraced run prints.
var endToEnd = gated(true)

func gated(want bool) []metricSpec {
	var out []metricSpec
	for _, j := range journeys {
		if (j.Bound > 0) == want {
			out = append(out, j)
		}
	}
	return out
}

// timedJourneys are the end-to-end metrics that are floors of a sample
// series (the rest are counts); each also gets ungated .p50 and .tail
// per-layer companions.
var timedJourneys = []string{"setup_s", "pkts_per_s", "alert_us", "settle_ms", "read_us", "deploy_ms", "intent_ms"}

// cycleSpans are the spans that tile a cycle; their self times say
// where each end-to-end floor is spent.
var cycleSpans = []string{
	"span.packets", "span.alert.export", "span.alert.wait",
	"span.roll.export_epoch", "span.roll.roll_epoch", "span.roll.settle_wait",
	"span.reads", "span.intent.plan", "span.intent.apply", "span.intent.first_result_wait",
}

// perLayer are the single-layer numbers of the traced run. None gates.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	const (
		pkts   = "pkts_per_s on steady/flood"
		setup  = "setup_s everywhere; intent_ms + pkts_per_s on churn"
		deploy = "deploy_ms + intent_ms on churn; setup_s everywhere"
		alert  = "alert_us everywhere; pkts_per_s, wire_bytes_per_epoch, allocs_per_epoch on flood"
		settle = "settle_ms, wire_bytes_per_epoch, live_heap_mb on epoch-storm; intent_ms everywhere"
		read   = "read_us; settle_ms on epoch-storm (same mutex)"
	)
	out := []metricSpec{
		{Name: "trace.generate_s", Unit: "s", Better: "lower", Moves: "nothing: the benchmark's own load generator, kept out of setup_s"},

		{Name: "dataplane.process_ns", Unit: "ns", Better: "lower", Moves: pkts},
		{Name: "dataplane.table_lookup_ns", Unit: "ns", Better: "lower", Moves: pkts},
		{Name: "dataplane.drain_reports_ns", Unit: "ns", Better: "lower", Moves: pkts},
		{Name: "dataplane.dropped", Unit: "count", Better: "lower", Moves: pkts},

		{Name: "classify.compile_us", Unit: "us", Better: "lower", Moves: setup},
		{Name: "classify.lookup_ns", Unit: "ns", Better: "lower", Moves: setup},

		{Name: "modules.execute_ns", Unit: "ns", Better: "lower", Moves: "pkts_per_s (flood far more than steady)"},
		{Name: "modules.dispatch_miss_ratio", Unit: "ratio", Better: "lower", Moves: "pkts_per_s (flood far more than steady)"},
		{Name: "modules.ternary_scans", Unit: "count", Better: "lower", Moves: "pkts_per_s (flood far more than steady)"},
		{Name: "modules.install_us", Unit: "us", Better: "lower", Moves: "deploy_ms on churn"},
		{Name: "modules.remove_us", Unit: "us", Better: "lower", Moves: "deploy_ms on churn"},
		{Name: "modules.roll_epoch_us", Unit: "us", Better: "lower", Moves: "settle_ms on epoch-storm"},
		{Name: "modules.snapshot_banks_us", Unit: "us", Better: "lower", Moves: "settle_ms on epoch-storm"},

		{Name: "netsim.deliver_path_ns", Unit: "ns", Better: "lower", Moves: "pkts_per_s; no gated metric today"},
		{Name: "netsim.deliver_batch2_ns", Unit: "ns", Better: "lower", Moves: "pkts_per_s; no gated metric today (2 lanes, GOMAXPROCS=2)"},

		{Name: "query.parse_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "compiler.compile_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "scheduler.fits_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "placement.place_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "orchestrator.plan_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "orchestrator.apply_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "orchestrator.converge_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "controller.install_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "controller.remove_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "controller.resize_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "controller.tick_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "rpc.call_us", Unit: "us", Better: "lower", Moves: deploy},
		{Name: "rpc.retries", Unit: "count", Better: "lower", Moves: deploy},

		{Name: "orchestrator.monitor_tick_us", Unit: "us", Better: "lower", Moves: "no gated metric; MTTR stand-in (fake 64-switch fleet)"},
		{Name: "orchestrator.refiner_step_us", Unit: "us", Better: "lower", Moves: "no gated metric; MTTR stand-in (fake 64-intent fleet)"},

		{Name: "telemetry.export_ns_per_report", Unit: "ns", Better: "lower", Moves: alert},
		{Name: "telemetry.ring_dropped", Unit: "count", Better: "lower", Moves: alert},
		{Name: "telemetry.ring_overflows", Unit: "count", Better: "lower", Moves: alert},
		{Name: "wire.encode_reports_ns_per_report", Unit: "ns", Better: "lower", Moves: alert},
		{Name: "wire.decode_reports_ns_per_report", Unit: "ns", Better: "lower", Moves: alert},
		{Name: "wire.bytes_per_report", Unit: "B", Better: "lower", Moves: alert},
		{Name: "telemetry.ingest_reports_ns_per_report", Unit: "ns", Better: "lower", Moves: alert},
		{Name: "telemetry.dup_alert_ratio", Unit: "ratio", Better: "lower", Moves: alert},
		{Name: "telemetry.sub_dropped", Unit: "count", Better: "lower", Moves: alert},

		{Name: "telemetry.export_epoch_us", Unit: "us", Better: "lower", Moves: settle},
		{Name: "wire.encode_snapshot_us", Unit: "us", Better: "lower", Moves: settle},
		{Name: "wire.decode_snapshot_us", Unit: "us", Better: "lower", Moves: settle},
		{Name: "wire.compress_us", Unit: "us", Better: "lower", Moves: settle},
		{Name: "wire.snapshot_bytes", Unit: "B", Better: "lower", Moves: settle},
		{Name: "wire.delta_frame_ratio", Unit: "ratio", Better: "higher", Moves: settle},
		{Name: "wire.compressed_frame_ratio", Unit: "ratio", Better: "higher", Moves: settle},
		{Name: "telemetry.merge_us_per_snapshot", Unit: "us", Better: "lower", Moves: settle},
		{Name: "telemetry.partial_epochs", Unit: "count", Better: "lower", Moves: settle},
		{Name: "telemetry.epoch_gaps", Unit: "count", Better: "lower", Moves: settle},

		{Name: "telemetry.estimate_ns", Unit: "ns", Better: "lower", Moves: read},
		{Name: "telemetry.observed_accuracy_us", Unit: "us", Better: "lower", Moves: read},
		{Name: "telemetry.latest_settled_us", Unit: "us", Better: "lower", Moves: read},
		{Name: "analyzer.collector_add_ns", Unit: "ns", Better: "lower", Moves: read},

		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "allocs_per_epoch; pkts_per_s on flood"},
		{Name: "runtime.allocs_per_pkt", Unit: "count", Better: "lower", Moves: "allocs_per_epoch; pkts_per_s on flood"},

		{Name: "span.overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: traced vs untraced pkts_per_s"},
	}
	for _, name := range cycleSpans {
		out = append(out,
			metricSpec{Name: name, Unit: "us", Better: "lower", Moves: "time per cycle, floor"},
			metricSpec{Name: name + ".p50", Unit: "us", Better: "lower", Moves: "time per cycle, median"})
	}
	for _, j := range gated(false) {
		j.Moves = "a journey whose calibrated spread is too wide to gate"
		out = append(out, j)
	}
	for _, name := range timedJourneys {
		if name == "setup_s" {
			continue // set-up is not sampled on the traced run
		}
		e := specOf(journeys, name)
		out = append(out,
			metricSpec{Name: name + ".p50", Unit: e.Unit, Better: e.Better, Moves: "ungated median of " + name},
			metricSpec{Name: name + ".tail", Unit: e.Unit, Better: e.Better, Moves: "ungated high percentile of " + name})
	}
	return out
}

func specOf(specs []metricSpec, name string) metricSpec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return metricSpec{}
}
