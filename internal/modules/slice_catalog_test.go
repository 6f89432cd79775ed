package modules_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/trace"
)

// lineResult is what a line of switches left: each query's reports as a
// multiset (TS and switch zeroed, since partitions report from
// different hops) and each branch's register rows in chain order,
// partitions concatenated.
type lineResult struct {
	reports map[int]map[string]int // by qid
	banks   map[int][][]uint32
	n       int
}

// companyQID is the first qid of the queries runLine installs beside the
// one under test.
const companyQID = 100

// runLine installs the k-th of each query's parts on the k-th of a line
// of bare switches and sends every packet of tr down the line, as netsim
// delivers it: the result-snapshot header one switch attaches is what
// the next reads, and the host strips what is left. Every switch also
// runs a query that matches every packet, once before and once after
// the queries under test, so its chains share the PHV with others as on
// a fleet switch; the result leaves them out.
func runLine(t *testing.T, tr *trace.Trace, queries ...[]*modules.Program) lineResult {
	t.Helper()
	company := func(qid int) *modules.Program {
		o := compiler.AllOpts()
		o.QID = qid
		p, err := compiler.Compile(query.New("company").Map(fields.DstIP).ReduceCount(fields.DstIP).FilterResultGt(50).Build(), o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sws := make([]*dataplane.Switch, len(queries[0]))
	engs := make([]*modules.Engine, len(sws))
	for i := range sws {
		l, err := modules.NewLayout(modules.LayoutCompact, 24, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = modules.NewEngine(l)
		progs := []*modules.Program{company(companyQID)}
		for _, parts := range queries {
			progs = append(progs, parts[i])
		}
		for _, prog := range append(progs, company(companyQID+1)) {
			if err := engs[i].Install(prog); err != nil {
				t.Fatalf("install %s: %v", prog.Name, err)
			}
		}
		sws[i] = dataplane.NewSwitch(fmt.Sprintf("s%d", i), 24, modules.StageCapacity())
		sws[i].AddRoute(0, 0, 1)
		sws[i].Monitor = engs[i]
	}
	for _, pkt := range tr.Packets {
		pkt.SP = nil
		for _, sw := range sws {
			sw.Process(pkt)
		}
		pkt.SP = nil
	}
	res := lineResult{reports: map[int]map[string]int{}, banks: map[int][][]uint32{}}
	for i, sw := range sws {
		for _, r := range sw.DrainReports() {
			if r.QueryID >= companyQID {
				continue
			}
			r.TS, r.SwitchID = 0, ""
			if res.reports[r.QueryID] == nil {
				res.reports[r.QueryID] = map[string]int{}
			}
			res.reports[r.QueryID][fmt.Sprintf("%+v", r)]++
			res.n++
		}
		for _, b := range engs[i].SnapshotBanks() {
			if b.QueryID < companyQID {
				res.banks[b.Branch] = append(res.banks[b.Branch], registersOf(&b))
			}
		}
	}
	return res
}

// sweepTrace is background traffic with every attack the nine catalog
// queries look for; each of them reports on it when it runs whole.
func sweepTrace() *trace.Trace {
	return trace.Generate(trace.Config{Seed: 15, Flows: 40, Duration: 100 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		trace.UDPFlood{Victim: 0x0A0000AB, Sources: 150},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 200},
		trace.SSHBrute{Victim: 0x0A0000AD, Attempts: 100},
		trace.Slowloris{Victim: 0x0A0000AE, Conns: 150},
		trace.DNSNoTCP{Hosts: 5, Queries: 30},
		trace.SuperSpreader{Source: 0x0B000002, Fanout: 200})
}

// TestSliceEqualsWhole is DESIGN invariant 3, a CQE-partitioned query ≡
// the single-switch query: each catalog query, compiled at AllOpts at two
// widths and without Opt.1 (every branch then matches every packet), and
// cut by SliceProgram at every stage budget below its length that it
// accepts, runs over a line of switches and must send the reports the
// whole query sends on one switch and leave every register row equal.
// Every partition keeps its chains in stage order, and the budgets each
// query accepts are pinned, so a refusal cannot hollow the sweep out.
func TestSliceEqualsWhole(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine: nothing to race, and forty times slower")
	}
	tr := sweepTrace()
	every := func(from, to int) (b []int) {
		for ; from <= to; from++ {
			b = append(b, from)
		}
		return b
	}
	for _, tc := range []struct {
		opt1  bool
		width uint32
		// accepted lists the budgets below the whole query each query
		// accepts, in catalog order.
		accepted [9][]int
	}{
		{true, 1024, [9][]int{every(1, 5), every(1, 10), every(1, 10), every(1, 10), every(1, 10), {9}, {7, 8}, {13}, {8}}},
		{true, 4096, [9][]int{every(1, 5), every(1, 10), every(1, 10), every(1, 10), every(1, 10), {9}, {7, 8}, {13}, {8}}},
		{false, 4096, [9][]int{every(1, 7), every(5, 12), every(5, 12), every(5, 12), every(5, 12), nil, nil, {15}, nil}},
	} {
		for qi, q := range query.All() {
			t.Run(fmt.Sprintf("%s/w%d/opt1=%v", q.Name, tc.width, tc.opt1), func(t *testing.T) {
				o := compiler.AllOpts()
				o.Opt1, o.QID, o.Width = tc.opt1, qi+1, tc.width
				p, err := compiler.Compile(q, o)
				if err != nil {
					t.Fatal(err)
				}
				var sliced [][]*modules.Program
				var budgets []int
				for budget := 1; budget < p.NumStages(); budget++ {
					parts, err := modules.SliceProgram(p, budget)
					if err != nil {
						continue
					}
					for _, part := range parts {
						for bi, b := range part.Branches {
							if !slices.IsSortedFunc(b.Ops, func(x, y *modules.Op) int { return x.Stage - y.Stage }) {
								t.Errorf("budget %d: %s branch %d is not in stage order", budget, part.Name, bi)
							}
						}
					}
					sliced, budgets = append(sliced, parts), append(budgets, budget)
				}
				if !slices.Equal(budgets, tc.accepted[qi]) {
					t.Fatalf("accepted budgets %v, want %v", budgets, tc.accepted[qi])
				}

				whole := runLine(t, tr, []*modules.Program{p})
				if whole.n == 0 {
					t.Fatal("the whole query sent no report")
				}
				for i, parts := range sliced {
					got := runLine(t, tr, parts)
					if !reflect.DeepEqual(got.reports, whole.reports) {
						t.Errorf("budget %d (%d parts): %d reports, whole sends %d, or they differ",
							budgets[i], len(parts), got.n, whole.n)
					}
					if !reflect.DeepEqual(got.banks, whole.banks) {
						t.Errorf("budget %d (%d parts): register rows differ from the whole query's", budgets[i], len(parts))
					}
				}
			})
		}
	}
}

// TestSliceRefusesStaleHash: without Opt.1 a distinct → reduce chain
// keys its Bloom rows and its Count-Min rows on different masks of one
// metadata set, so at some cuts the set has been re-keyed since its last
// hash, and the body after the cut reads that hash. The continuation
// prefix would hash the new keys; SliceProgram must refuse those cuts as
// ErrUnsliceable, and the first cut past them must compute what the
// whole query does.
func TestSliceRefusesStaleHash(t *testing.T) {
	q := query.New("syn_sport_distinct").
		Filter(query.Eq(fields.Proto, packet.ProtoTCP), query.Eq(fields.TCPFlags, packet.FlagSYN)).
		Map(fields.DstIP, fields.SrcPort).
		Distinct(fields.DstIP, fields.SrcPort).
		ReduceCount(fields.DstIP).
		Build()
	o := compiler.AllOpts()
	o.Opt1, o.QID, o.Width, o.ReduceRows, o.DistinctHashes = false, 1, 1024, 2, 3
	p, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	for budget := 1; budget <= 4; budget++ {
		if _, err := modules.SliceProgram(p, budget); !errors.Is(err, modules.ErrUnsliceable) {
			t.Errorf("budget %d: SliceProgram = %v, want ErrUnsliceable", budget, err)
		}
	}
	parts, err := modules.SliceProgram(p, 5)
	if err != nil || len(parts) < 2 {
		t.Fatalf("budget 5: %d parts, %v", len(parts), err)
	}
	tr := sweepTrace()
	got, whole := runLine(t, tr, parts), runLine(t, tr, []*modules.Program{p})
	if !reflect.DeepEqual(got.banks, whole.banks) {
		t.Error("budget 5: register rows differ from the whole query's")
	}
}

// TestSliceRefusesSaturatedGlobal: the result snapshot carries the
// global result saturated to 16 bits. A byte count cut off from its
// threshold test would reach the next switch capped at 32767 and never
// pass 40000, a byte count reports every value past its threshold (a sum
// can jump the crossing value), so its reports past 16 bits would carry
// the capped global, and q8's merge cut between its ×512 scale and its
// subtraction would subtract from the capped value: SliceProgram refuses
// those cuts. A packet count under a threshold inside 16 bits reports at
// its crossing value and slices at every budget, and a cut before the
// global is set is fine.
func TestSliceRefusesSaturatedGlobal(t *testing.T) {
	for _, c := range []struct {
		bytes bool
		th    uint64
		want  []int
	}{{true, 40, []int{3}}, {true, 40000, []int{3}}, {false, 40, []int{1, 2, 3, 4, 5}}} {
		b := query.New("heavy").Map(fields.DstIP).ReduceCount(fields.DstIP)
		if c.bytes {
			b = query.New("heavy").Map(fields.DstIP).ReduceSum(fields.PktLen, fields.DstIP)
		}
		p, err := compiler.Compile(b.FilterResultGt(c.th).Build(), compiler.AllOpts())
		if err != nil {
			t.Fatal(err)
		}
		var accepted []int
		for budget := 1; budget < p.NumStages(); budget++ {
			switch _, err := modules.SliceProgram(p, budget); {
			case err == nil:
				accepted = append(accepted, budget)
			case !errors.Is(err, modules.ErrUnsliceable):
				t.Errorf("bytes=%v > %d, budget %d: %v, want ErrUnsliceable", c.bytes, c.th, budget, err)
			}
		}
		if !slices.Equal(accepted, c.want) {
			t.Errorf("bytes=%v > %d: accepted budgets %v, want %v", c.bytes, c.th, accepted, c.want)
		}
	}
	p, err := compiler.Compile(query.All()[7], compiler.AllOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modules.SliceProgram(p, 12); !errors.Is(err, modules.ErrUnsliceable) {
		t.Errorf("q8 at budget 12: SliceProgram = %v, want ErrUnsliceable", err)
	}
}
