package modules

import (
	"strconv"
	"sync"

	"github.com/newton-net/newton/internal/obs"
)

// queryGaugeFamilies is the per-query resource accounting surface — the
// paper's §6 per-query cost tables as live series, one per installed
// query, labeled {switch, qid, query}. Series appear on install and
// disappear on remove (event-driven via the engine's onChange hook, so
// scrapes never race rule updates).
var queryGaugeFamilies = []struct {
	name, help string
	get        func(Footprint) int64
}{
	{"newton_query_stages", "Pipeline stages spanned by the installed query.",
		func(f Footprint) int64 { return int64(f.Stages) }},
	{"newton_query_registers", "State-bank register slots allocated to the query.",
		func(f Footprint) int64 { return int64(f.Registers) }},
	{"newton_query_hash_units", "Hash-calculation module instances used by the query.",
		func(f Footprint) int64 { return int64(f.HashUnits) }},
	{"newton_query_salus", "State-owning stateful-ALU instances used by the query.",
		func(f Footprint) int64 { return int64(f.SALUs) }},
	{"newton_query_init_rules", "newton_init classifier entries installed for the query.",
		func(f Footprint) int64 { return int64(f.InitRules) }},
	{"newton_query_result_rules", "Result-process (R-table) entries installed for the query.",
		func(f Footprint) int64 { return int64(f.ResultRules) }},
	{"newton_query_rules", "Total module-table rules installed for the query.",
		func(f Footprint) int64 { return int64(f.Rules) }},
	{"newton_query_classifier_preds", "Distinct newton_init classifier predicates contributed by the query.",
		func(f Footprint) int64 { return int64(f.ClassifierPreds) }},
}

// PublishFootprints (re)publishes per-query resource gauges for the
// given programs into reg, summing across partitions of the same query,
// and removes series for queries in prev that are now gone. It returns
// the currently published qid -> query-name map for the next call.
// extra labels (e.g. switch or mode) prefix the {qid, query} pair.
func PublishFootprints(reg *obs.Registry, progs []*Program, prev map[int]string, extra ...obs.Label) map[int]string {
	type agg struct {
		name string
		f    Footprint
	}
	byQID := map[int]*agg{}
	for _, p := range progs {
		fp := p.Footprint()
		a := byQID[p.QID]
		if a == nil {
			a = &agg{name: p.Name}
			byQID[p.QID] = a
		}
		a.f.Stages += fp.Stages
		a.f.HashUnits += fp.HashUnits
		a.f.SALUs += fp.SALUs
		a.f.Registers += fp.Registers
		a.f.InitRules += fp.InitRules
		a.f.ResultRules += fp.ResultRules
		a.f.Rules += fp.Rules
		a.f.ClassifierPreds += fp.ClassifierPreds
	}
	for qid, name := range prev {
		if _, still := byQID[qid]; still {
			continue
		}
		RemoveQueryFootprint(reg, qid, name, extra...)
	}
	cur := make(map[int]string, len(byQID))
	for qid, a := range byQID {
		cur[qid] = a.name
		PublishQueryFootprint(reg, qid, a.name, a.f, extra...)
	}
	return cur
}

// queryLabels builds the {extra..., qid, query} label set shared by all
// per-query gauge families.
func queryLabels(qid int, name string, extra []obs.Label) []obs.Label {
	ls := make([]obs.Label, 0, len(extra)+2)
	ls = append(ls, extra...)
	return append(ls, obs.L("qid", strconv.Itoa(qid)), obs.L("query", name))
}

// PublishQueryFootprint sets the per-query resource gauges for one
// query from a computed footprint — the controller-side entry point,
// where programs are published one deploy at a time with deploy-scoped
// labels (e.g. mode).
func PublishQueryFootprint(reg *obs.Registry, qid int, name string, f Footprint, extra ...obs.Label) {
	ls := queryLabels(qid, name, extra)
	for _, fam := range queryGaugeFamilies {
		reg.Gauge(fam.name, fam.help, ls...).Set(fam.get(f))
	}
}

// RemoveQueryFootprint drops the per-query gauges published under the
// same labels.
func RemoveQueryFootprint(reg *obs.Registry, qid int, name string, extra ...obs.Label) {
	ls := queryLabels(qid, name, extra)
	for _, fam := range queryGaugeFamilies {
		reg.Remove(fam.name, ls...)
	}
}

// AttachObs wires the engine's execution metrics and per-query resource
// gauges into reg, labeling engine families with switch=switchID.
// Attach before traffic starts: it installs the sampled-latency
// histogram and the install/remove hook without synchronization against
// a running Execute.
func AttachObs(e *Engine, reg *obs.Registry, switchID string) {
	sw := obs.L("switch", switchID)
	reg.CounterFunc("newton_engine_packets_total",
		"Packets executed by the module engine.",
		func() uint64 { p, _, _ := e.Counters(); return p }, sw)
	reg.CounterFunc("newton_engine_dispatch_misses_total",
		"Packets whose newton_init classification was not served from the lane's flow table (new flow, rule change, or evicted entry).",
		func() uint64 { _, m, _ := e.Counters(); return m }, sw)
	reg.CounterFunc("newton_engine_dispatch_evictions_total",
		"Dispatch misses that evicted a live flow-table entry: misses without evictions are new flows, misses with them a table too small or a flood.",
		func() uint64 { return e.dispatchEvictions(-1) }, sw)
	for k := Kind(0); k < NumKinds; k++ {
		kind := k
		reg.CounterFunc("newton_engine_module_execs_total",
			"Module-op executions by kind (K, H, S, R).",
			func() uint64 { _, _, ex := e.Counters(); return ex[kind] },
			sw, obs.L("module", kind.String()))
	}

	// State-bank occupancy: what each bank has admitted, from the ledger
	// Install charges, set on every install and remove so a scrape never
	// reads the ledger beside a rule update; and what the admitted
	// registers cost the host. They are different numbers — a bank's
	// ArraySize allocates nothing.
	type bankGauge struct {
		stage, u int
		g        *obs.Gauge
	}
	var banks []bankGauge
	for st := 1; st <= e.layout.Stages(); st++ {
		for u := 0; u < e.layout.Kind.SuitesPerStage(); u++ {
			if e.layout.HasBank(st, u) {
				banks = append(banks, bankGauge{st, u, reg.Gauge("newton_engine_state_registers",
					"Registers admitted against the state bank's ArraySize budget.",
					sw, obs.L("stage", strconv.Itoa(st)), obs.L("set", strconv.Itoa(u)))})
			}
		}
	}
	reg.GaugeFunc("newton_engine_state_host_bytes",
		"Host memory held by the installed queries' registers (4 B a Count-Min register, 1 bit a Bloom register).",
		func() float64 { return float64(e.StateHostBytes()) }, sw)

	// Per-worker series: each engine lane gets its own sampled-latency
	// histogram and packet/miss/eviction counters labeled {switch, worker}. The
	// hook stays on the engine so lanes created by a later SetWorkers
	// pick up their series too.
	e.laneObs = func(lane int) *obs.Histogram {
		w := obs.L("worker", strconv.Itoa(lane))
		reg.CounterFunc("newton_engine_worker_packets_total",
			"Packets executed per engine worker lane.",
			func() uint64 { p, _ := e.LaneCounters(lane); return p }, sw, w)
		reg.CounterFunc("newton_engine_worker_dispatch_misses_total",
			"Dispatch misses per engine worker lane.",
			func() uint64 { _, m := e.LaneCounters(lane); return m }, sw, w)
		reg.CounterFunc("newton_engine_worker_dispatch_evictions_total",
			"Dispatch misses that evicted a live flow-table entry, per engine worker lane.",
			func() uint64 { return e.dispatchEvictions(lane) }, sw, w)
		h := obs.NewHistogram(obs.ExpBuckets(64, 2, 14)) // 64ns .. ~0.5ms
		reg.RegisterHistogram("newton_engine_exec_ns",
			"Sampled whole-packet engine execution time in ns (1 in 64 packets), per worker lane.",
			h, sw, w)
		return h
	}
	for i, l := range e.lanes {
		l.execNS = e.laneObs(i)
	}

	var mu sync.Mutex
	prev := map[int]string{}
	publish := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range banks {
			b.g.Set(int64(e.layout.ledger.registers(b.stage, b.u)))
		}
		prev = PublishFootprints(reg, e.Programs(), prev, sw)
	}
	e.onChange = publish
	publish()
}
