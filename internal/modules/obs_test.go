package modules

import (
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/obs"
)

func TestFootprint(t *testing.T) {
	f := buildCountProgram(1, 3, 1024).Footprint()
	want := Footprint{
		Stages:      6, // ops span stages 1..5
		HashUnits:   1,
		SALUs:       1,
		Registers:   1024,
		InitRules:   1,
		ResultRules: 2,
		Rules:       5,

		ClassifierPreds: 2, // proto=TCP and tcpflags=SYN
	}
	if f != want {
		t.Fatalf("Footprint = %+v, want %+v", f, want)
	}
}

// TestAttachObsEngineCounters checks the attached metrics against
// ground truth: every processed packet shows up in the packet counter,
// per-module execution counts match the installed chain shape, and the
// per-query resource gauges appear on install and vanish on remove.
func TestAttachObsEngineCounters(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	reg := obs.NewRegistry()
	AttachObs(eng, reg, "s1")

	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	const n = 100
	for i := 0; i < n; i++ {
		sw.Process(synTo(42))
	}

	snap := reg.Snapshot()
	swl := obs.L("switch", "s1")
	if s := snap.Find("newton_engine_packets_total", swl); s == nil || s.Value != n {
		t.Fatalf("packets_total = %v, want %d", s, n)
	}
	// The count chain executes K, H, S once and R twice per packet.
	wantExecs := map[string]float64{"K": n, "H": n, "S": n, "R": 2 * n}
	for mod, want := range wantExecs {
		s := snap.Find("newton_engine_module_execs_total", swl, obs.L("module", mod))
		if s == nil || s.Value != want {
			t.Fatalf("module_execs_total{module=%s} = %v, want %v", mod, s, want)
		}
	}
	// Sampled exec latency: 100 packets at a 1/64 sampling rate must
	// have observed at least one.
	if f := snap.Get("newton_engine_exec_ns"); f == nil || len(f.Series) == 0 || f.Series[0].Count == 0 {
		t.Fatalf("exec_ns histogram unobserved: %+v", f)
	}

	// Per-query resource gauges, from the same footprint as TestFootprint.
	ql := []obs.Label{swl, obs.L("qid", "1"), obs.L("query", "count_syn")}
	for name, want := range map[string]float64{
		"newton_query_stages":    6,
		"newton_query_registers": 1024,
		"newton_query_rules":     5,
	} {
		if s := snap.Find(name, ql...); s == nil || s.Value != want {
			t.Fatalf("%s = %v, want %v", name, s, want)
		}
	}

	// State-bank occupancy: the count row sits in stage 3's first bank.
	// Its width is what the bank has admitted; 4 B a register is what
	// the switch holds for it.
	bankl := []obs.Label{swl, obs.L("stage", "3"), obs.L("set", "0")}
	if s := snap.Find("newton_engine_state_registers", bankl...); s == nil || s.Value != 1024 {
		t.Fatalf("state_registers{stage=3,set=0} = %v, want 1024", s)
	}
	if s := snap.Find("newton_engine_state_registers", swl, obs.L("stage", "4"), obs.L("set", "1")); s == nil || s.Value != 0 {
		t.Fatalf("state_registers of an unused bank = %v, want 0", s)
	}
	if s := snap.Find("newton_engine_state_host_bytes", swl); s == nil || s.Value != 4*1024 {
		t.Fatalf("state_host_bytes = %v, want %d", s, 4*1024)
	}

	if err := eng.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	snap = reg.Snapshot()
	if s := snap.Find("newton_query_stages", ql...); s != nil {
		t.Fatalf("query gauge survived remove: %+v", s)
	}
	if s := snap.Find("newton_engine_state_registers", bankl...); s == nil || s.Value != 0 {
		t.Fatalf("state_registers after remove = %v, want 0", s)
	}
	if s := snap.Find("newton_engine_state_host_bytes", swl); s == nil || s.Value != 0 {
		t.Fatalf("state_host_bytes after remove = %v, want 0", s)
	}
}

// TestAttachObsZeroAlloc is the acceptance guard for the instrumented
// fast path: with the full observability surface attached — packet and
// module-exec counters, per-worker sampled latency histograms, per-query
// gauges — steady-state packet processing must not allocate on the
// sequential path or on any sharded worker lane.
func TestAttachObsZeroAlloc(t *testing.T) {
	const workers = 4
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(workers)
	reg := obs.NewRegistry()
	AttachObs(eng, reg, "s1")
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(workers)
	sw.Monitor = eng

	pkt := synTo(42)
	sw.Process(pkt) // warm: claims the flow's slot
	// 200 runs crosses the 1/64 sampling boundary several times, so the
	// timed path is exercised too.
	if avg := testing.AllocsPerRun(200, func() {
		sw.Process(pkt)
	}); avg != 0 {
		t.Fatalf("instrumented steady-state allocs per packet = %v, want 0", avg)
	}

	// Every worker lane, each with its own flow table, counters, and
	// {switch, worker}-labeled histogram, must also run allocation-free.
	for w := 0; w < workers; w++ {
		sw.ProcessLane(pkt, w) // warm this lane's flow table
		if avg := testing.AllocsPerRun(200, func() {
			sw.ProcessLane(pkt, w)
		}); avg != 0 {
			t.Fatalf("worker %d steady-state allocs per packet = %v, want 0", w, avg)
		}
	}
}

// TestAttachObsDispatchEvictions checks the series that tell new flows
// from a thrashing table: distinct flows into a roomy table are misses
// without evictions; into a table pinned to one set, every miss past
// the first flowWays evicts, on the engine series and the lane's.
func TestAttachObsDispatchEvictions(t *testing.T) {
	const flows = 3 * flowWays
	for _, tc := range []struct {
		pin       bool
		evictions float64
	}{{false, 0}, {true, flows - flowWays}} {
		sw, eng := countSwitch(t, tc.pin)
		reg := obs.NewRegistry()
		AttachObs(eng, reg, "s1")
		if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
			t.Fatalf("Install: %v", err)
		}
		for i := 0; i < flows; i++ {
			sw.Process(synTo(uint32(i)))
		}
		snap := reg.Snapshot()
		swl, w0 := obs.L("switch", "s1"), obs.L("worker", "0")
		for name, want := range map[string]float64{
			"newton_engine_dispatch_misses_total":    flows,
			"newton_engine_dispatch_evictions_total": tc.evictions,
		} {
			if s := snap.Find(name, swl); s == nil || s.Value != want {
				t.Errorf("pin=%v: %s = %v, want %v", tc.pin, name, s, want)
			}
		}
		if s := snap.Find("newton_engine_worker_dispatch_evictions_total", swl, w0); s == nil || s.Value != tc.evictions {
			t.Errorf("pin=%v: worker 0 evictions = %v, want %v", tc.pin, s, tc.evictions)
		}
	}
}

// TestAttachObsClassifierSeries checks the classifier's observability
// surface: the per-query predicate gauge the scheduler's cap is charged
// in, and nothing else — newton_init publishes only compiled rule sets,
// so a scan counter and a compiled gauge would read constants.
func TestAttachObsClassifierSeries(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	reg := obs.NewRegistry()
	AttachObs(eng, reg, "s1")
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	for i := 0; i < 4; i++ {
		sw.Process(synTo(uint32(i))) // distinct flows: each misses dispatch
	}
	snap := reg.Snapshot()
	if g := snap.Find("newton_query_classifier_preds", obs.L("qid", "1")); g == nil || g.Value != 2 {
		t.Fatalf("classifier_preds{qid=1} = %v, want 2 (proto=TCP, tcpflags=SYN)", g)
	}
	for _, name := range []string{"newton_engine_ternary_scan_total", "newton_table_classifier_compiled"} {
		if snap.Get(name) != nil {
			t.Fatalf("%s is published; newton_init has no scan and no uncompiled state", name)
		}
	}
}
