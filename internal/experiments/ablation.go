package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
)

// Register budgets each sketch-geometry point splits across its rows.
const (
	ablationCMSBudget   = 4096
	ablationBloomBudget = 16384
)

// AblationResult quantifies two design choices DESIGN.md calls out
// beyond the paper's own figures:
//
//  1. Sketch geometry — why the evaluation's 2-row Count-Min (and 3-hash
//     Bloom) defaults are sensible: overestimation error versus rows at
//     a fixed register budget (rows trade width for independence),
//     measured on the registers of a switch running the compiled query.
//  2. Layout state capacity — what the compact layout buys beyond stage
//     packing: state banks in every stage instead of every fourth one,
//     i.e. 8x the registers available to stateful queries on the same
//     12-stage device.
type AblationResult struct {
	// RowsMeanError[i] and RowsP99Error[i] are the mean and 99th-
	// percentile Count-Min overestimates with i+1 rows, and
	// RowsRegisters[i] the registers those rows spend, at most
	// ablationCMSBudget.
	RowsMeanError []float64
	RowsP99Error  []float64
	RowsRegisters []uint32
	// BloomFPR[i] is the Bloom false-positive rate with i+1 hashes,
	// estimated from the rows' fills, and BloomRegisters[i] the
	// registers those rows spend, at most ablationBloomBudget.
	BloomFPR       []float64
	BloomRegisters []uint32

	// NaiveBanks/CompactBanks are the state banks a 12-stage device
	// offers under each layout; the register ratio follows directly.
	NaiveBanks, CompactBanks int
	RegisterRatio            float64
}

// Ablation runs both studies.
func Ablation() *AblationResult {
	res := &AblationResult{}

	// Count-Min: the registers split across 1..4 rows. The workload is
	// heavy-tailed — a handful of elephant keys among many mice —
	// because that is where row count matters: a mouse colliding with an
	// elephant in every row is exponentially unlikely as rows grow, so
	// more rows crush the tail error until the narrower rows
	// (budget/rows) start to dominate and error climbs back.
	rng := rand.New(rand.NewSource(99))
	keys := make([]uint32, 3000) // DstIPs: a packet field holds 32 bits
	counts := make([]uint32, len(keys))
	for i := range keys {
		keys[i] = rng.Uint32()
		if i < 50 {
			counts[i] = 500 // elephants
		} else {
			counts[i] = uint32(rng.Intn(5) + 1)
		}
	}
	// No count reaches the threshold, so the rows only count.
	cms := query.New("ablation_cms").ReduceCount(fields.DstIP).FilterResultGt(1 << 30).Build()
	for rows := 1; rows <= 4; rows++ {
		o := compiler.AllOpts()
		o.ReduceRows, o.Width = rows, ablationCMSBudget/uint32(rows)
		banks := runSketch(cms, o, keys, counts)
		errs := make([]float64, len(keys))
		var errSum float64
		for i, k := range keys {
			errs[i] = float64(minAt(banks, k)) - float64(counts[i])
			errSum += errs[i]
		}
		sort.Float64s(errs)
		res.RowsMeanError = append(res.RowsMeanError, errSum/float64(len(keys)))
		res.RowsP99Error = append(res.RowsP99Error, errs[len(errs)*99/100])
		res.RowsRegisters = append(res.RowsRegisters, registers(banks))
	}

	// Bloom: the bits split across 1..4 hashes, the stream's first 2000
	// keys inserted, and the FPR the telemetry plane publishes: the
	// product of the rows' fills.
	bloom := query.New("ablation_bloom").Distinct(fields.DstIP).Build()
	for k := 1; k <= 4; k++ {
		o := compiler.AllOpts()
		o.DistinctHashes, o.Width = k, ablationBloomBudget/uint32(k)
		banks := runSketch(bloom, o, keys[:2000], counts[:2000])
		fills := make([]float64, len(banks))
		for i, b := range banks {
			nonzero := 0
			for _, v := range b.Values {
				if v != 0 {
					nonzero++
				}
			}
			fills[i] = sketch.BloomRowFill(nonzero, b.Width)
		}
		res.BloomFPR = append(res.BloomFPR, sketch.BloomFPPFromFills(fills))
		res.BloomRegisters = append(res.BloomRegisters, registers(banks))
	}

	// Layout capacity on the evaluation's 12-stage device.
	count := func(kind modules.LayoutKind) int {
		l, err := modules.NewLayout(kind, dataplane.TofinoStages, 1024)
		if err != nil {
			panic(err)
		}
		n := 0
		for st := 1; st <= l.Stages(); st++ {
			for u := 0; u < kind.SuitesPerStage(); u++ {
				if l.HasBank(st, u) {
					n++
				}
			}
		}
		return n
	}
	res.NaiveBanks = count(modules.LayoutNaive)
	res.CompactBanks = count(modules.LayoutCompact)
	res.RegisterRatio = float64(res.CompactBanks) / float64(res.NaiveBanks)
	return res
}

// runSketch compiles q under o, installs it on the engine of one
// switch, sends counts[i] packets to each DstIP keys[i], and returns the
// banks the switch would export.
func runSketch(q *query.Query, o compiler.Options, keys, counts []uint32) []modules.BankSnapshot {
	p, err := compiler.Compile(q, o)
	if err != nil {
		panic(err)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, dataplane.TofinoStages, ablationBloomBudget)
	if err != nil {
		panic(err)
	}
	eng := modules.NewEngine(layout)
	if err := eng.Install(p); err != nil {
		panic(err)
	}
	sw := dataplane.NewSwitch("ablation", dataplane.TofinoStages, modules.StageCapacity())
	sw.Monitor = eng
	pkt := &packet.Packet{IP: packet.IPv4{Proto: packet.ProtoUDP, TTL: 64, Src: 1}}
	for i, k := range keys {
		pkt.IP.Dst = k
		for n := counts[i]; n > 0; n-- {
			sw.Process(pkt)
		}
	}
	return eng.SnapshotBanks()
}

// minAt is the Count-Min estimate for DstIP key: the least register
// over the rows, each at the slot its hash configuration addresses.
func minAt(banks []modules.BankSnapshot, key uint32) uint32 {
	var v fields.Vector
	v.Set(fields.DstIP, uint64(key))
	est := ^uint32(0)
	for i := range banks {
		b := &banks[i]
		if c := b.Values[b.Slot(b.KeyMask.Bytes(&v, nil))]; c < est {
			est = c
		}
	}
	return est
}

// registers is what the banks spend: the sum of their widths.
func registers(banks []modules.BankSnapshot) (n uint32) {
	for _, b := range banks {
		n += b.Width
	}
	return n
}

// String renders both studies.
func (r *AblationResult) String() string {
	t1 := &table{header: []string{"CM rows", "Registers", "Mean overestimate", "P99 overestimate"}}
	for i, e := range r.RowsMeanError {
		t1.add(i2s(i+1), fmt.Sprint(r.RowsRegisters[i]), f2(e), f2(r.RowsP99Error[i]))
	}
	t2 := &table{header: []string{"Bloom hashes", "Registers", "FPR @ 2000 keys"}}
	for i, f := range r.BloomFPR {
		t2.add(i2s(i+1), fmt.Sprint(r.BloomRegisters[i]), sci(f))
	}
	return fmt.Sprintf(
		"Ablation: sketch geometry on one switch's registers (budgets %d CM, %d Bloom) and layout capacity\n%s\n%s\n"+
			"state banks on a 12-stage device: naive %d, compact %d (%.0fx register capacity)\n",
		ablationCMSBudget, ablationBloomBudget, t1.String(), t2.String(), r.NaiveBanks, r.CompactBanks, r.RegisterRatio)
}
