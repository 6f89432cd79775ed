package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// AblationResult quantifies two design choices DESIGN.md calls out
// beyond the paper's own figures:
//
//  1. Sketch geometry — why the evaluation's 2-row Count-Min (and 3-hash
//     Bloom) defaults are sensible: overestimation error versus rows at
//     a fixed register budget (rows trade width for independence).
//  2. Layout state capacity — what the compact layout buys beyond stage
//     packing: state banks in every stage instead of every fourth one,
//     i.e. 8x the registers available to stateful queries on the same
//     12-stage device.
type AblationResult struct {
	// RowsMeanError[i] and RowsP99Error[i] are the mean and 99th-
	// percentile Count-Min overestimates with i+1 rows, total register
	// budget held constant.
	RowsMeanError []float64
	RowsP99Error  []float64
	// BloomFPR[i] is the Bloom false-positive rate with i+1 hashes at a
	// fixed bit budget.
	BloomFPR []float64

	// NaiveBanks/CompactBanks are the state banks a 12-stage device
	// offers under each layout; the register ratio follows directly.
	NaiveBanks, CompactBanks int
	RegisterRatio            float64
}

// Ablation runs both studies.
func Ablation() *AblationResult {
	res := &AblationResult{}

	// Count-Min: 4096 registers total, split across 1..4 rows. The
	// workload is heavy-tailed — a handful of elephant keys among many
	// mice — because that is where row count matters: a mouse colliding
	// with an elephant in every row is exponentially unlikely as rows
	// grow, so 2–3 rows crush the tail error; beyond that the narrower
	// rows (budget/rows) start to dominate and error climbs back. The
	// evaluation's 2-row default sits at the knee.
	const budget = 4096
	rng := rand.New(rand.NewSource(99))
	keys := make([]uint64, 3000)
	counts := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64()
		if i < 50 {
			counts[i] = 500 // elephants
		} else {
			counts[i] = uint64(rng.Intn(5) + 1)
		}
	}
	kb := func(k uint64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], k)
		return b[:]
	}
	for rows := 1; rows <= 4; rows++ {
		cm := sketch.NewCountMin(rows, uint32(budget/rows), sketch.CRC32IEEE)
		for i, k := range keys {
			cm.Add(kb(k), counts[i])
		}
		errs := make([]float64, len(keys))
		var errSum float64
		for i, k := range keys {
			errs[i] = float64(cm.Estimate(kb(k)) - counts[i])
			errSum += errs[i]
		}
		sort.Float64s(errs)
		res.RowsMeanError = append(res.RowsMeanError, errSum/float64(len(keys)))
		res.RowsP99Error = append(res.RowsP99Error, errs[len(errs)*99/100])
	}

	// Bloom: 1<<14 bits, 1..4 hashes, 2000 inserted keys, FPR from the
	// closed form (validated against sampling in the sketch tests).
	for k := 1; k <= 4; k++ {
		b := sketch.NewBloom(1<<14, k, sketch.CRC32IEEE)
		res.BloomFPR = append(res.BloomFPR, b.FalsePositiveRate(2000))
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
				if l.BankAt(st, u) != nil {
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

// String renders both studies.
func (r *AblationResult) String() string {
	t1 := &table{header: []string{"CM rows (4096 regs total)", "Mean overestimate", "P99 overestimate"}}
	for i, e := range r.RowsMeanError {
		t1.add(i2s(i+1), f2(e), f2(r.RowsP99Error[i]))
	}
	t2 := &table{header: []string{"Bloom hashes (16Kb)", "FPR @ 2000 keys"}}
	for i, f := range r.BloomFPR {
		t2.add(i2s(i+1), sci(f))
	}
	return fmt.Sprintf(
		"Ablation: sketch geometry and layout capacity\n%s\n%s\n"+
			"state banks on a 12-stage device: naive %d, compact %d (%.0fx register capacity)\n",
		t1.String(), t2.String(), r.NaiveBanks, r.CompactBanks, r.RegisterRatio)
}
