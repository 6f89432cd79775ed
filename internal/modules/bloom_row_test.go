package modules_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/trace"
)

// bloomTrace is a seeded trace that sets Bloom bits in every catalog
// distinct: benign flows, a SYN flood, a port scan and a super-spreader.
func bloomTrace() *trace.Trace {
	return trace.Generate(trace.Config{Seed: 51, Flows: 400, Duration: 100 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 3000},
		trace.PortScan{Scanner: 0x0B000001, Victim: 0x0A0000AC, Ports: 600},
		trace.SuperSpreader{Source: 0x0B000002, Fanout: 400})
}

// bankKey names a bank across engines.
func bankKey(b *modules.BankSnapshot) string {
	return fmt.Sprintf("q%d.%d/b%d/r%d", b.QueryID, b.Part, b.Branch, b.Row)
}

// TestBloomRowsMatchWordRows is the vs-prev oracle of the bitmap Bloom
// row: the nine catalog queries on a switch whose Bloom rows are bits,
// and on one whose Bloom rows are rebound to the 32-bit rows they were
// (Engine.UseWordBloomRows), over one seeded trace with a window roll in
// the middle — on one lane (ExecSeq) and on four (Exec), every packet
// from this goroutine on its flow's lane so the order is defined. The
// reports must be the same, in the same order; every Count-Min row the
// same register for register; and every Bloom row's bits exactly the
// word row's nonzero registers, each of which holds 1.
func TestBloomRowsMatchWordRows(t *testing.T) {
	tr := bloomTrace()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(words bool) ([]dataplane.Report, []modules.BankSnapshot) {
				sw, eng := catalogSwitch(t, 9, workers)
				if words {
					eng.UseWordBloomRows()
				}
				var reports []dataplane.Report
				for i, pkt := range tr.Packets {
					if i == len(tr.Packets)/2 {
						reports = append(reports, sw.DrainReports()...)
						eng.RollEpoch()
					}
					sw.ProcessLane(pkt, int(pkt.Flow().LaneHash()%uint64(workers)))
				}
				return append(reports, sw.DrainReports()...), eng.SnapshotBanks()
			}
			gotReports, gotBanks := run(false)
			wantReports, wantBanks := run(true)
			if len(wantReports) == 0 {
				t.Fatal("the trace produced no reports")
			}
			if !reflect.DeepEqual(gotReports, wantReports) {
				t.Errorf("reports differ: %d from the bitmap rows, %d from the word rows", len(gotReports), len(wantReports))
			}
			checkBloomRows(t, gotBanks, wantBanks, true)
		})
	}
}

// checkBloomRows holds a bitmap engine's banks to a word-row engine's:
// the same banks, Count-Min rows equal when counters is set, and each
// Bloom row (a Count-Min row's Values at the reference) set exactly
// where the word row is nonzero, each such register 1. It fails when no
// Bloom row has a bit.
func checkBloomRows(t *testing.T, got, want []modules.BankSnapshot, counters bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d banks, the word-row engine %d", len(got), len(want))
	}
	bloomBits := 0
	for i := range got {
		g, w := &got[i], &want[i]
		if bankKey(g) != bankKey(w) || g.Width != w.Width {
			t.Fatalf("bank %d is %s of width %d, the word-row engine's %s of width %d", i, bankKey(g), g.Width, bankKey(w), w.Width)
		}
		if g.Kind != modules.BankBloomRow {
			if counters && !reflect.DeepEqual(g.Values, w.Values) {
				t.Errorf("Count-Min row %s differs", bankKey(g))
			}
			continue
		}
		if g.Values != nil || len(g.Bits) != int(g.Width+63)/64 {
			t.Fatalf("Bloom row %s: %d values, %d words for width %d", bankKey(g), len(g.Values), len(g.Bits), g.Width)
		}
		for j, v := range w.Values {
			bit := uint32(g.Bits[j/64]>>(j%64)) & 1
			if v > 1 || bit != v {
				t.Fatalf("Bloom row %s register %d: bit %d, word row %d", bankKey(g), j, bit, v)
			}
			bloomBits += int(bit)
		}
	}
	if bloomBits == 0 {
		t.Fatal("the trace set no Bloom bit")
	}
}

// TestBloomRowsConcurrentLanes: four goroutines deliver the trace, each
// its flow shard on its own lane, through the atomic transactions. The
// Bloom rows end the window as the single-lane word-row engine leaves
// them: a CAS that loses a race retries, so no bit set by one lane is
// lost to another (run under -race in CI). The Count-Min rows are not
// compared: which of two racing packets of a key passes a distinct
// first, and what a row behind it then counts, is the interleaving's.
func TestBloomRowsConcurrentLanes(t *testing.T) {
	tr := bloomTrace()
	const workers = 4
	sw, eng := catalogSwitch(t, 9, workers)
	shards := make([][]*packet.Packet, workers)
	for _, pkt := range tr.Packets {
		w := pkt.Flow().LaneHash() % workers
		shards[w] = append(shards[w], pkt)
	}
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, pkt := range shards[w] {
				sw.ProcessLane(pkt, w)
			}
		}(w)
	}
	wg.Wait()

	ref, refEng := catalogSwitch(t, 9, 1)
	refEng.UseWordBloomRows()
	for _, pkt := range tr.Packets {
		ref.Process(pkt)
	}
	checkBloomRows(t, eng.SnapshotBanks(), refEng.SnapshotBanks(), false)
}
