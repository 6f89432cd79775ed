package wire

import (
	"math/rand"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// bankShape is one point of the fill x turnover table in EXPERIMENTS.md
// ("Held epoch state follows the touched registers"): a switch's bank
// set, and how much of it changes from one epoch to the next.
type bankShape struct {
	name         string
	banks, width int
	fill         float64 // share of registers nonzero
	turnover     string  // "same", "values" (every nonzero value changes), "cells" (which registers are set changes)
}

var bankShapes = []bankShape{
	{"18x16384/fill0.5%/same", 18, 16384, 0.005, "same"},
	{"43x4096/fill25%/same", 43, 4096, 0.25, "same"},
	{"43x4096/fill25%/values", 43, 4096, 0.25, "values"},
	{"43x4096/fill25%/cells", 43, 4096, 0.25, "cells"},
	{"43x4096/fill86%/values", 43, 4096, 0.86, "values"},
	{"43x4096/fill95%/values", 43, 4096, 0.95, "values"},
}

// epochs returns the two bank sets a shape alternates between.
func (s bankShape) epochs(rng *rand.Rand) [2][]modules.BankSnapshot {
	a := genBanks(rng, s.banks, s.width)
	for i := range a {
		a[i].Kind = modules.BankCMSRow
		emptyRegs(&a[i])
		for _, j := range rng.Perm(s.width)[:int(s.fill*float64(s.width))] {
			a[i].Values[j] = 1 + uint32(rng.Intn(1<<12))
		}
	}
	b := cloneBanks(a)
	for i := range b {
		switch s.turnover {
		case "values":
			for j, v := range b[i].Values {
				if v != 0 {
					b[i].Values[j] = v + 1 + uint32(rng.Intn(16))
				}
			}
		case "cells":
			rng.Shuffle(s.width, func(x, y int) {
				b[i].Values[x], b[i].Values[y] = b[i].Values[y], b[i].Values[x]
			})
		}
	}
	return [2][]modules.BankSnapshot{a, b}
}

// BenchmarkSnapshotEpoch times one switch's epoch through the codec and
// the merge — encode, decode, add into a recycled uint64 row — for the
// sparse codec and merged cells, and for the dense references they
// replaced, over the shapes above. One op is one epoch; the chain
// keyframes every 8 like the exporter's.
func BenchmarkSnapshotEpoch(b *testing.B) {
	for _, shape := range bankShapes {
		sets := shape.epochs(rand.New(rand.NewSource(18)))
		merged := make([][]uint64, shape.banks)
		for i := range merged {
			merged[i] = make([]uint64, shape.width)
		}
		b.Run(shape.name+"/sparse", func(b *testing.B) {
			var enc SnapshotEncoder
			var dec SnapshotDecoder
			var payload []byte
			rows := make([]MergedCells, shape.banks)
			for i := 0; i < b.N; i++ {
				payload, _ = enc.Encode(payload[:0], uint32(i), sets[i&1])
				_, got, err := dec.Decode(payload)
				if err != nil {
					b.Fatal(err)
				}
				for j := range got {
					rows[j].Reset(got[j].Width, false)
					rows[j].Merge(dec.Cells(j))
				}
			}
			b.ReportMetric(float64(enc.HeldBytes()+dec.HeldBytes()), "held-B")
		})
		b.Run(shape.name+"/dense", func(b *testing.B) {
			var enc denseEncoder
			var dec denseDecoder
			var payload []byte
			for i := 0; i < b.N; i++ {
				payload, _ = enc.Encode(payload[:0], uint32(i), sets[i&1])
				_, got, err := dec.Decode(payload)
				if err != nil {
					b.Fatal(err)
				}
				for j := range got {
					m := merged[j]
					clear(m)
					for k, v := range got[j].Values {
						m[k] += uint64(v)
					}
				}
			}
			b.ReportMetric(float64(3*4*shape.banks*shape.width), "held-B")
		})
	}
}
