package compiler

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/trace"
)

func TestCompileAllQueriesAllModes(t *testing.T) {
	modes := map[string]Options{
		"baseline":  Baseline(),
		"opt1":      {Opt1: true},
		"opt12":     {Opt1: true, Opt2: true},
		"opt123":    AllOpts(),
		"sharded":   {Opt1: true, Opt2: true, Opt3: true, ShardIndex: 1, ShardCount: 3},
		"wide":      {Opt1: true, Opt2: true, Opt3: true, Width: 1 << 14},
		"morehash":  {Opt1: true, Opt2: true, Opt3: true, DistinctHashes: 4, ReduceRows: 3},
		"no-opt3":   {Opt1: true, Opt2: true},
		"only-opt3": {Opt3: true},
	}
	for name, o := range modes {
		for i, q := range query.All() {
			o.QID = i + 1
			p, err := Compile(q, o)
			if err != nil {
				t.Fatalf("%s: Q%d: %v", name, i+1, err)
			}
			if p.NumOps() == 0 {
				t.Errorf("%s: Q%d compiled to zero ops", name, i+1)
			}
			if p.NumStages() == 0 {
				t.Errorf("%s: Q%d has no stages", name, i+1)
			}
		}
	}
}

func TestOptimizationsMonotonic(t *testing.T) {
	// Opt.1 and Opt.2 strictly shed modules and stages. Opt.3 trades a
	// few modules back — Algorithm 1 restores a K whenever the other
	// metadata set's operation keys change (lines 16 and 21) — but must
	// cut stages sharply.
	steps := []Options{Baseline(), {Opt1: true}, {Opt1: true, Opt2: true}}
	for i, q := range query.All() {
		prevM, prevS := 1<<30, 1<<30
		for si, o := range steps {
			p, err := Compile(q, o)
			if err != nil {
				t.Fatal(err)
			}
			s := Measure(q, p)
			if s.Modules > prevM || s.Stages > prevS {
				t.Errorf("Q%d step %d regressed: modules %d>%d or stages %d>%d",
					i+1, si, s.Modules, prevM, s.Stages, prevS)
			}
			prevM, prevS = s.Modules, s.Stages
		}
		p3, err := Compile(q, AllOpts())
		if err != nil {
			t.Fatal(err)
		}
		s3 := Measure(q, p3)
		if s3.Modules > prevM+5 {
			t.Errorf("Q%d Opt.3 restored too many Ks: %d vs %d", i+1, s3.Modules, prevM)
		}
		if s3.Stages >= prevS {
			t.Errorf("Q%d Opt.3 did not reduce stages: %d vs %d", i+1, s3.Stages, prevS)
		}
	}
}

func TestReductionRatiosMatchPaper(t *testing.T) {
	// §6.4: "Newton can reduce modules by more than 42.4% and stages by
	// more than 69.7%". Our module decomposition lands within a point of
	// both minima; pin them so regressions surface.
	minM, minS := 1.0, 1.0
	for _, q := range query.All() {
		pb, _ := Compile(q, Baseline())
		po, _ := Compile(q, AllOpts())
		sb, so := Measure(q, pb), Measure(q, po)
		mRed := 1 - float64(so.Modules)/float64(sb.Modules)
		sRed := 1 - float64(so.Stages)/float64(sb.Stages)
		if mRed < minM {
			minM = mRed
		}
		if sRed < minS {
			minS = sRed
		}
	}
	if minM < 0.41 {
		t.Errorf("min module reduction %.3f, want >= 0.41 (paper: 0.424)", minM)
	}
	if minS < 0.69 {
		t.Errorf("min stage reduction %.3f, want >= 0.69 (paper: 0.697)", minS)
	}
}

func TestBaselineStagesEqualModules(t *testing.T) {
	// The intuitive composition is one module per stage, all branches
	// chained (Fig. 6: "occupies up to 20 modules and 20 stages").
	for i, q := range query.All() {
		p, _ := Compile(q, Baseline())
		s := Measure(q, p)
		if s.Stages != s.Modules {
			t.Errorf("Q%d baseline stages %d != modules %d", i+1, s.Stages, s.Modules)
		}
	}
}

func TestOptimizedFitsModestPipelines(t *testing.T) {
	// With full optimization every evaluation query fits a 14-stage
	// pipeline (the paper reports <=10 for its variants; our distinct
	// uses 3 serialized global folds, costing a few more).
	for i, q := range query.All() {
		p, _ := Compile(q, AllOpts())
		if got := p.NumStages(); got > 14 {
			t.Errorf("Q%d needs %d stages optimized", i+1, got)
		}
	}
}

func TestOpt1FoldsFrontFilters(t *testing.T) {
	q := query.Q1(40)
	p, _ := Compile(q, Options{Opt1: true})
	b := p.Branches[0]
	if b.Init == modules.MatchAllInit() {
		t.Error("front filter not folded into newton_init")
	}
	if b.Init.Values[2] != 6 || b.Init.Masks[2] != 0xFF {
		t.Errorf("init proto match wrong: %+v", b.Init)
	}
	if b.Init.Values[5] != 2 {
		t.Errorf("init flags match wrong: %+v", b.Init)
	}
	// Without Opt1, the init matches everything and the filter compiles
	// to modules.
	p2, _ := Compile(q, Baseline())
	if p2.Branches[0].Init != modules.MatchAllInit() {
		t.Error("baseline should not fold filters")
	}
	if p2.NumOps() <= p.NumOps() {
		t.Error("baseline should carry the filter modules")
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(&query.Query{}, AllOpts()); err == nil {
		t.Error("invalid query accepted")
	}
	// Merge query with multi-field stateful keys is not data-plane
	// mergeable.
	bad := query.New("bad").
		Filter(query.Eq(fields.Proto, 6)).
		ReduceCount(fields.DstIP, fields.DstPort).
		FilterResultGt(0).
		Branch().
		Filter(query.Eq(fields.Proto, 17)).
		ReduceCount(fields.DstIP).
		FilterResultGt(0).
		MergeMin(5).
		Build()
	if _, err := Compile(bad, AllOpts()); err == nil {
		t.Error("multi-field merge keys accepted")
	}
}

// runDataplane pushes a trace through one simulated switch with the
// compiled query installed and returns the deduplicated flagged keys.
func runDataplane(t *testing.T, q *query.Query, o Options, tr *trace.Trace) (map[uint64]bool, int) {
	return runDataplaneN(t, q, o, tr, 16, 1<<17)
}

// runDataplaneN is runDataplane with explicit pipeline geometry (deep
// pipelines for unoptimized compositions).
func runDataplaneN(t *testing.T, q *query.Query, o Options, tr *trace.Trace, stages int, arraySize uint32) (map[uint64]bool, int) {
	t.Helper()
	layout, err := modules.NewLayout(modules.LayoutCompact, stages, arraySize)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	o.QID = 1
	p, err := Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(p); err != nil {
		t.Fatal(err)
	}
	sw := dataplane.NewSwitch("s1", stages, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	window := uint64(q.Window)
	nextEpoch := window
	for _, pkt := range tr.Packets {
		for pkt.TS >= nextEpoch {
			eng.RollEpoch()
			nextEpoch += window
		}
		sw.Process(pkt)
	}
	col := analyzer.NewCollector(window, q.ReportKeys())
	col.AddAll(sw.DrainReports())
	return col.FlaggedKeys(), col.Raw
}

func refFlagged(q *query.Query, tr *trace.Trace) map[uint64]bool {
	e := analyzer.NewEngine(q)
	e.Run(tr.Packets)
	return e.FlaggedKeys()
}

func evalTrace(seed int64) *trace.Trace {
	return trace.Generate(trace.Config{Seed: seed, Flows: 400, Duration: 300 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 400},
		trace.UDPFlood{Victim: 0x0A0000AB, Sources: 120},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 150},
		trace.SSHBrute{Victim: 0x0A0000AD, Attempts: 80},
		trace.Slowloris{Victim: 0x0A0000AE, Conns: 120},
		trace.DNSNoTCP{Hosts: 4, Queries: 25},
		trace.SuperSpreader{Source: 0x0B000002, Fanout: 150},
	)
}

// TestDataplaneMatchesReferenceSingleBranch is the core semantic
// property: with ample sketch memory, the compiled single-branch queries
// flag exactly the keys the exact reference engine flags.
func TestDataplaneMatchesReferenceSingleBranch(t *testing.T) {
	tr := evalTrace(42)
	for i, q := range query.All()[:5] { // Q1..Q5 are single-branch
		got, _ := runDataplane(t, q, Options{Opt1: true, Opt2: true, Opt3: true, Width: 1 << 15}, tr)
		want := refFlagged(q, tr)
		for k := range want {
			if !got[k] {
				t.Errorf("Q%d: data plane missed key %d", i+1, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("Q%d: data plane falsely flagged key %d", i+1, k)
			}
		}
	}
}

// TestDataplaneMatchesReferenceSums: a single-branch sum steps by the
// summed field, so it jumps past threshold + 1 where a count lands on
// it; the compiled query still flags exactly the reference's keys.
func TestDataplaneMatchesReferenceSums(t *testing.T) {
	tr := trace.Generate(trace.Config{Seed: 3, Flows: 400, Duration: 300 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 300})
	for _, src := range []string{
		"map(dip) | reduce(dip, sum(len)) | filter(result > 5000)",
		"filter(proto == tcp) | map(sip) | reduce(sip, sum(len)) | filter(result >= 20000)",
	} {
		q, err := query.Parse("sum", src)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runDataplane(t, q, Options{Opt1: true, Opt2: true, Opt3: true, Width: 1 << 15}, tr)
		want := refFlagged(q, tr)
		if len(want) == 0 {
			t.Fatalf("%s: the reference flags no key; the trace does not exercise the threshold", src)
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: data plane missed key %d", src, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("%s: data plane falsely flagged key %d", src, k)
			}
		}
		t.Logf("%s: %d keys flagged", src, len(want))
	}
}

// TestDataplaneMatchesReferenceMergeQueries checks the merge queries:
// the data plane reports at threshold crossing (streaming) while the
// reference evaluates at window close, so the data plane may
// additionally flag keys that retreated below the threshold by window
// end — but it must never miss a true key.
func TestDataplaneMatchesReferenceMergeQueries(t *testing.T) {
	tr := evalTrace(43)
	for i, q := range query.All()[5:] {
		got, _ := runDataplane(t, q, Options{Opt1: true, Opt2: true, Opt3: true, Width: 1 << 15}, tr)
		want := refFlagged(q, tr)
		missed := 0
		for k := range want {
			if !got[k] {
				missed++
			}
		}
		if missed > 0 {
			t.Errorf("Q%d: data plane missed %d/%d true keys", i+6, missed, len(want))
		}
		extra := 0
		for k := range got {
			if !want[k] {
				extra++
			}
		}
		if len(want) > 0 && extra > 3*len(want)+3 {
			t.Errorf("Q%d: %d streaming-only extras vs %d true keys", i+6, extra, len(want))
		}
	}
}

func TestBaselineCompositionAlsoExecutesCorrectly(t *testing.T) {
	// Opt.1/2/3 must not change semantics (DESIGN invariant 2): the
	// unoptimized composition of Q1 flags the same keys.
	tr := evalTrace(44)
	q := query.Q1(40)
	// Baseline needs stages = modules; give it a deep pipeline.
	layout, err := modules.NewLayout(modules.LayoutCompact, 24, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	p, err := Compile(q, Options{QID: 1, Width: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(p); err != nil {
		t.Fatal(err)
	}
	sw := dataplane.NewSwitch("s1", 24, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	window := uint64(q.Window)
	next := window
	for _, pkt := range tr.Packets {
		for pkt.TS >= next {
			eng.RollEpoch()
			next += window
		}
		sw.Process(pkt)
	}
	col := analyzer.NewCollector(window, q.ReportKeys())
	col.AddAll(sw.DrainReports())
	got := col.FlaggedKeys()
	want := refFlagged(q, tr)
	if len(got) != len(want) {
		t.Fatalf("baseline flagged %d keys, reference %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("baseline missed key %d", k)
		}
	}
}

func TestReportOncePerKeyPerWindow(t *testing.T) {
	// Newton's accurate exportation: a sustained flood yields one report
	// per victim per window, not one per packet.
	tr := trace.Generate(trace.Config{Seed: 7, Flows: 0, Duration: 300 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 3000})
	_, raw := runDataplane(t, query.Q1(40), AllOpts(), tr)
	if raw > 3 { // one per 100ms window
		t.Errorf("raw reports = %d for a 3-window flood, want <= 3", raw)
	}
}

func TestShardedCompilationSplitsKeys(t *testing.T) {
	// With 3-way sharding, each victim reports from exactly one shard.
	tr := trace.Generate(trace.Config{Seed: 9, Flows: 100, Duration: 100 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 300},
		trace.SYNFlood{Victim: 0x0A0000AB, Packets: 300},
		trace.SYNFlood{Victim: 0x0A0000AC, Packets: 300})
	q := query.Q1(40)
	union := map[uint64]bool{}
	total := 0
	for shard := uint32(0); shard < 3; shard++ {
		got, _ := runDataplane(t, q, Options{
			Opt1: true, Opt2: true, Opt3: true,
			ShardIndex: shard, ShardCount: 3, Width: 1 << 14,
		}, tr)
		for k := range got {
			if union[k] {
				t.Errorf("key %d flagged by more than one shard", k)
			}
			union[k] = true
		}
		total += len(got)
	}
	want := refFlagged(q, tr)
	for k := range want {
		if !union[k] {
			t.Errorf("sharded execution missed key %d", k)
		}
	}
}

func TestMeasureAndSonata(t *testing.T) {
	q := query.Q1(40)
	p, _ := Compile(q, AllOpts())
	s := Measure(q, p)
	if s.Primitives != 4 || s.Modules != p.NumOps() || s.Rules != p.RuleCount() {
		t.Errorf("Measure = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	tables, stages := SonataEstimate(q)
	if tables != 5 || stages != 5 {
		t.Errorf("SonataEstimate(Q1) = %d tables, %d stages", tables, stages)
	}
	t6, s6 := SonataEstimate(query.Q6(30))
	if t6 <= tables || s6 <= stages {
		t.Error("Sonata estimate should grow with query size")
	}
}

func TestPredRange(t *testing.T) {
	cases := []struct {
		p      query.Predicate
		lo, hi int64
	}{
		{query.Gt(query.Result, 10), 11, rInf},
		{query.Lt(query.Result, 10), -rInf, 9},
		{query.Predicate{Field: query.Result, Op: query.CmpGe, Value: 10}, 10, rInf},
		{query.Predicate{Field: query.Result, Op: query.CmpLe, Value: 10}, -rInf, 10},
		{query.Predicate{Field: query.Result, Op: query.CmpEq, Value: 10}, 10, 10},
	}
	for _, c := range cases {
		lo, hi := predRange(c.p)
		if lo != c.lo || hi != c.hi {
			t.Errorf("predRange(%v) = [%d, %d], want [%d, %d]", c.p, lo, hi, c.lo, c.hi)
		}
	}
}

func TestExpectedHashMatchesEngine(t *testing.T) {
	// The compiler's precomputed filter hash must equal what the engine
	// computes for a satisfying packet (same masking, same serialization).
	preds := []query.Predicate{
		query.Eq(fields.Proto, 6),
		query.Eq(fields.DstPort, 22),
	}
	mask := predMask(preds)
	want := expectedHash(preds, mask)

	var v fields.Vector
	v.Set(fields.Proto, 6)
	v.Set(fields.DstPort, 22)
	v.Set(fields.SrcIP, 0xDEADBEEF) // concealed fields must not matter
	keys := mask.Apply(&v)
	var buf [8 * int(fields.NumFields)]byte
	got := sketchFNV(mask.Bytes(&keys, buf[:0]))
	if got != want {
		t.Errorf("engine hash %#x != compiler hash %#x", got, want)
	}
}

func sketchFNV(b []byte) uint32 {
	return fnvSum(b)
}

func fnvSum(b []byte) uint32 {
	return sketch.FNV1a.Sum(b, filterSeed)
}

func BenchmarkCompileQ6(b *testing.B) {
	q := query.Q6(30)
	o := AllOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(q, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileAllNine(b *testing.B) {
	qs := query.All()
	o := AllOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := Compile(q, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDSLQueryMatchesBuilderQuery: a Q6 written in the textual intent
// DSL must compile to the same footprint and flag the same keys as the
// builder-constructed Q6.
func TestDSLQueryMatchesBuilderQuery(t *testing.T) {
	src := `filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		filter(proto == tcp && tcp_flags == synack) | map(sip) | reduce(sip, sum) | filter(result > 0) ;
		filter(proto == tcp && tcp_flags == ack) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
		merge(1, 1, -2 > 30)`
	dsl, err := query.Parse("q6_dsl", src)
	if err != nil {
		t.Fatal(err)
	}
	built := query.Q6(30)

	pd, err := Compile(dsl, AllOpts())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(built, AllOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pd.NumOps() != pb.NumOps() || pd.NumStages() != pb.NumStages() {
		t.Errorf("footprints differ: DSL %d/%d vs builder %d/%d",
			pd.NumOps(), pd.NumStages(), pb.NumOps(), pb.NumStages())
	}

	tr := evalTrace(77)
	o := Options{Opt1: true, Opt2: true, Opt3: true, Width: 1 << 14}
	gotDSL, _ := runDataplane(t, dsl, o, tr)
	gotBuilt, _ := runDataplane(t, built, o, tr)
	if len(gotDSL) != len(gotBuilt) {
		t.Fatalf("flagged sets differ: %d vs %d", len(gotDSL), len(gotBuilt))
	}
	for k := range gotBuilt {
		if !gotDSL[k] {
			t.Errorf("DSL query missed key %d", k)
		}
	}
}

// BenchmarkCompileCatalog compiles the nine catalog queries at width
// 1024 on one reused Compiler, as the orchestrator compiles its rungs.
func BenchmarkCompileCatalog(b *testing.B) {
	var c Compiler
	o := AllOpts()
	o.Width = 1024
	qs := query.All()
	b.ReportAllocs()
	for b.Loop() {
		for _, q := range qs {
			if _, err := c.Compile(q, o); err != nil {
				b.Fatal(err)
			}
		}
	}
}
