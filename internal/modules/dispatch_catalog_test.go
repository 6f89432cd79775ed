package modules_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/trace"
)

// catalogSwitch builds a 16-stage switch with the first n catalog
// queries installed.
func catalogSwitch(t *testing.T, n, workers int) (*dataplane.Switch, *modules.Engine) {
	t.Helper()
	l, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<16)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	eng := modules.NewEngine(l)
	eng.SetWorkers(workers)
	for i, q := range query.All()[:n] {
		o := compiler.AllOpts()
		o.QID = i + 1
		o.Width = 1 << 12
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatalf("Compile %s: %v", q.Name, err)
		}
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %s: %v", q.Name, err)
		}
	}
	sw := dataplane.NewSwitch("s1", 16, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(workers)
	sw.Monitor = eng
	return sw, eng
}

// TestDispatchMissZeroAlloc is the allocation guard of the miss path: a
// packet whose 5-tuple the lane has never seen is classified, its match
// set found interned, and a slot overwritten, without a malloc — with
// the nine catalog queries' newton_init compiled, and with the single
// entry of one. The warm-up floods the table to its full size first (it
// starts small and doubles when a set fills), so the measured packets
// all evict.
func TestDispatchMissZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries int
	}{{"compiled", 9}, {"single-entry", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sw, eng := catalogSwitch(t, tc.queries, 1)
			pkt := &packet.Packet{
				TS:  1,
				IP:  packet.IPv4{Proto: packet.ProtoTCP, TTL: 64, Dst: 0x0A000001},
				TCP: &packet.TCP{DstPort: 80, Flags: packet.FlagACK},
			}
			next := func() { // a never-repeated 5-tuple
				pkt.IP.Src++
				pkt.TCP.SrcPort = uint16(pkt.IP.Src * 7)
				sw.Process(pkt)
			}
			for i := 0; i < 4*modules.FlowTableLimit; i++ {
				next()
			}
			_, before, _ := eng.Counters()
			if avg := testing.AllocsPerRun(2000, next); avg != 0 {
				t.Fatalf("allocs per dispatch miss = %v, want 0", avg)
			}
			if _, after, _ := eng.Counters(); after-before != 2001 {
				t.Fatalf("%d of 2001 new 5-tuples missed dispatch", after-before)
			}
		})
	}
}

// banksByRow indexes a bank snapshot by what identifies a row.
func banksByRow(t *testing.T, eng *modules.Engine) map[string][]uint32 {
	t.Helper()
	out := map[string][]uint32{}
	for _, b := range eng.SnapshotBanks() {
		out[fmt.Sprintf("q%d.%d/b%d/r%d", b.QueryID, b.Part, b.Branch, b.Row)] = b.Values
	}
	if len(out) == 0 {
		t.Fatal("no banks snapshotted")
	}
	return out
}

// TestFlowTableTransparent is the vs-prev row of the fixed flow table:
// what the engine computes must not depend on what the table holds. An
// engine whose lane tables are pinned to one set (over a mixed benign +
// spoofed-flood trace only back-to-back packets of a flow still hit;
// everything else evicts) and a default engine (where the benign flows
// hit) must emit the same reports in the same order and leave every
// state bank slot-for-slot equal — on one lane and on four. The two
// engines also draw different hash seeds, so set membership differs
// between them.
func TestFlowTableTransparent(t *testing.T) {
	tr := trace.Generate(trace.Config{Seed: 15, Flows: 300, Duration: 100 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 3000},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 500})
	for _, workers := range []int{1, 4} {
		// "/shared": the lanes share the state banks. The label keeps the
		// ids these rows have always had.
		t.Run(fmt.Sprintf("workers=%d/shared", workers), func(t *testing.T) {
			// Packets keep trace order and each runs on its flow's lane, all
			// from this goroutine, so report order is defined: the drain
			// holds lane 0's reports first, each lane in its own order.
			run := func(pin bool) ([]dataplane.Report, map[string][]uint32, *modules.Engine) {
				sw, eng := catalogSwitch(t, 9, workers)
				if pin {
					eng.PinFlowTablesToOneSet()
				}
				for _, pkt := range tr.Packets {
					sw.ProcessLane(pkt, int(pkt.Flow().LaneHash()%uint64(workers)))
				}
				return sw.DrainReports(), banksByRow(t, eng), eng
			}
			wantReports, wantBanks, free := run(false)
			gotReports, gotBanks, pinned := run(true)

			pkts, freeMisses, _ := free.Counters()
			_, pinnedMisses, _ := pinned.Counters()
			if freeMisses*5 > pkts || pinnedMisses < 3*freeMisses {
				t.Fatalf("of %d packets the default engine missed %d and the pinned one %d: the runs do not contrast",
					pkts, freeMisses, pinnedMisses)
			}
			if len(wantReports) == 0 {
				t.Fatal("trace produced no reports")
			}
			if !reflect.DeepEqual(gotReports, wantReports) {
				t.Errorf("reports differ (%d pinned, %d default)", len(gotReports), len(wantReports))
			}
			if !reflect.DeepEqual(gotBanks, wantBanks) {
				for row, want := range wantBanks {
					if !reflect.DeepEqual(gotBanks[row], want) {
						t.Errorf("bank %s differs", row)
					}
				}
			}
		})
	}
}

// TestKeyHashCacheMatchesRecompute is the vs-prev row of the per-packet
// key-checksum cache: an engine whose H ops take a key's CRC from the
// lane's scratch (computed once per mask per packet, from the field
// words) and one whose scratch is gone (every H op serialises its
// operation keys and hashes the bytes, the computation the cache
// replaced) must emit the same reports in the same order and leave
// every bank equal slot for slot — over TestFlowTableTransparent's trace
// and catalog, on one lane and on four. Q4 also runs sliced across the two switches of a path, so the second switch
// hashes, counts and reports on a PHV restored from the result-snapshot
// header.
func TestKeyHashCacheMatchesRecompute(t *testing.T) {
	tr := trace.Generate(trace.Config{Seed: 15, Flows: 300, Duration: 100 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 3000},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 500})
	const slicedQID = 10
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d/shared", workers), func(t *testing.T) {
			type result struct {
				reports [2][]dataplane.Report // per switch
				banks   [2]map[string][]uint32
				cached  int
			}
			run := func(uncached bool) (res result) {
				var sws [2]*dataplane.Switch
				var engs [2]*modules.Engine
				sws[0], engs[0] = catalogSwitch(t, 9, workers)
				sws[1], engs[1] = catalogSwitch(t, 0, workers)
				o := compiler.AllOpts()
				o.QID, o.Width = slicedQID, 1<<12
				p, err := compiler.Compile(query.All()[3], o)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := modules.SliceProgram(p, 7)
				if err != nil || len(parts) != 2 {
					t.Fatalf("SliceProgram: %d parts, %v", len(parts), err)
				}
				for i := range sws {
					if err := engs[i].Install(parts[i]); err != nil {
						t.Fatal(err)
					}
					if uncached {
						engs[i].DropKeyCRCScratch()
					}
				}
				// Packets keep trace order, each on its flow's lane and through
				// both switches, all from this goroutine: report order is
				// defined, lane 0's first in each switch's drain.
				for _, pkt := range tr.Packets {
					pkt.SP = nil
					w := int(pkt.Flow().LaneHash() % uint64(workers))
					sws[0].ProcessLane(pkt, w)
					sws[1].ProcessLane(pkt, w)
					pkt.SP = nil
				}
				for i := range engs {
					res.reports[i] = sws[i].DrainReports()
					res.banks[i] = banksByRow(t, engs[i])
					for w := 0; w < workers; w++ {
						res.cached += engs[i].CachedKeyCRCs(w)
					}
				}
				return res
			}
			want, got := run(true), run(false)
			if want.cached != 0 || got.cached == 0 {
				t.Fatalf("checksums left in the scratch: oracle %d, cached engine %d: the runs do not contrast", want.cached, got.cached)
			}
			for i := range want.reports {
				sliced := 0
				for _, r := range want.reports[i] {
					if r.QueryID == slicedQID {
						sliced++
					}
				}
				if len(want.reports[i]) == 0 || i == 1 && sliced == 0 {
					t.Fatalf("switch %d: %d reports, %d of the sliced query", i, len(want.reports[i]), sliced)
				}
				if !reflect.DeepEqual(got.reports[i], want.reports[i]) {
					t.Errorf("switch %d: reports differ (%d cached, %d recomputed)",
						i, len(got.reports[i]), len(want.reports[i]))
				}
				for row, w := range want.banks[i] {
					if !reflect.DeepEqual(got.banks[i][row], w) {
						t.Errorf("switch %d bank %s differs", i, row)
					}
				}
				if len(got.banks[i]) != len(want.banks[i]) {
					t.Errorf("switch %d: %d banks cached, %d recomputed", i, len(got.banks[i]), len(want.banks[i]))
				}
			}
		})
	}
}
