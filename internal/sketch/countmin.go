package sketch

import (
	"fmt"
	"math"
)

// CountMin is a Count-Min sketch over d rows of w counters. Newton's
// reduce(f=sum) compiles to one state-bank module per row ("reduce could
// leverage several module suites to implement a multi-array CM", Fig. 3),
// and this type is the reference realization used by the analyzer and by
// baselines.
//
// Counters are epoch-tagged: stateful primitives are evaluated and reset
// every window (100 ms in the paper), and tagging each counter with the
// epoch that last wrote it implements the reset lazily, exactly as the
// register-based state bank does.
type CountMin struct {
	rows   int
	width  uint32
	algo   Algo
	counts [][]uint64
	epochs [][]uint32
	epoch  uint32
}

// NewCountMin builds a sketch with the given geometry. Width is rounded
// up to a power of two so that folding is a mask, as on hardware.
func NewCountMin(rows int, width uint32, algo Algo) *CountMin {
	if rows <= 0 || width == 0 {
		panic("sketch: bad CountMin geometry")
	}
	w := nextPow2(width)
	cm := &CountMin{rows: rows, width: w, algo: algo}
	cm.counts = make([][]uint64, rows)
	cm.epochs = make([][]uint32, rows)
	for r := range cm.counts {
		cm.counts[r] = make([]uint64, w)
		cm.epochs[r] = make([]uint32, w)
	}
	return cm
}

// Width returns the (power-of-two) counters per row.
func (cm *CountMin) Width() uint32 { return cm.width }

// NextEpoch starts a new window. Counters written in earlier epochs read
// as zero until rewritten.
func (cm *CountMin) NextEpoch() { cm.epoch++ }

func (cm *CountMin) slot(row int, key []byte) uint32 {
	return Fold(cm.algo.Sum(key, uint32(row)*0x9E3779B9+1), cm.width)
}

// Add increments the key's counters by delta and returns the new
// estimate (the minimum over rows after the update).
func (cm *CountMin) Add(key []byte, delta uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < cm.rows; r++ {
		i := cm.slot(r, key)
		if cm.epochs[r][i] != cm.epoch {
			cm.epochs[r][i] = cm.epoch
			cm.counts[r][i] = 0
		}
		cm.counts[r][i] += delta
		if cm.counts[r][i] < est {
			est = cm.counts[r][i]
		}
	}
	return est
}

// Estimate returns the current estimate for the key without updating.
func (cm *CountMin) Estimate(key []byte) uint64 {
	est := ^uint64(0)
	for r := 0; r < cm.rows; r++ {
		i := cm.slot(r, key)
		var v uint64
		if cm.epochs[r][i] == cm.epoch {
			v = cm.counts[r][i]
		}
		if v < est {
			est = v
		}
	}
	return est
}

// ErrorBound returns the classic (ε, δ) guarantee for the geometry: with
// probability 1-δ, Estimate ≤ true + ε·N where N is the stream total.
//
// N is a property of the stream, not of any one sketch instance: when
// several switches' banks are merged counter-wise into one network-wide
// row, the bound holds for the merged total (the sum over contributors),
// never for any single contributor's count. Callers turning this bound
// into an observed-error estimate must use the merged N — see
// CMSAbsError and telemetry.Service.ObservedAccuracy.
func (cm *CountMin) ErrorBound() (eps, delta float64) {
	return math.E / float64(cm.width), math.Exp(-float64(cm.rows))
}

// ErrorAt returns the absolute overcount bound ε·N for this geometry
// over a stream of n items. For an analyzer-merged multi-switch bank, n
// must be the merged stream total (sum over all contributors).
func (cm *CountMin) ErrorAt(n uint64) float64 {
	return CMSAbsError(cm.width, n)
}

// CMSAbsError is the Count-Min overcount bound ε·N = (e/width)·N for a
// row of the given width over a stream of n items, usable on merged
// analyzer banks that never materialize a CountMin instance.
func CMSAbsError(width uint32, n uint64) float64 {
	if width == 0 {
		return math.Inf(1)
	}
	return math.E * float64(n) / float64(width)
}

// CMSWidthFor returns the narrowest power-of-two row width whose
// overcount bound ε·N stays within maxAbs counts for a stream of n
// items — the inverse of CMSAbsError, used to drive the accuracy ladder
// from a target instead of from capacity.
func CMSWidthFor(n uint64, maxAbs float64) uint32 {
	if maxAbs <= 0 || n == 0 {
		return 1
	}
	need := math.E * float64(n) / maxAbs
	if need <= 1 {
		return 1
	}
	if need >= float64(1<<30) {
		return 1 << 30
	}
	return nextPow2(uint32(math.Ceil(need)))
}

// BloomRowFill is the set fraction of one Bloom row: the fill ratio the
// analyzer observes directly from a merged bank's nonzero positions.
func BloomRowFill(nonzero int, width uint32) float64 {
	if width == 0 {
		return 1
	}
	f := float64(nonzero) / float64(width)
	if f > 1 {
		return 1
	}
	return f
}

// BloomFPPFromFills is the false-positive probability of a filter whose
// k hash rows have the given observed fill ratios: a never-inserted key
// reads a set position in every row, so the FPP is the product. Unlike
// FalsePositiveRate this needs no insertion count — the fill is what
// the merged bank already shows.
func BloomFPPFromFills(fills []float64) float64 {
	if len(fills) == 0 {
		return 0
	}
	p := 1.0
	for _, f := range fills {
		p *= f
	}
	return p
}

// MemoryBytes returns the counter memory footprint, for resource reports.
func (cm *CountMin) MemoryBytes() int {
	return cm.rows * int(cm.width) * 8
}

func nextPow2(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	return v + 1
}

// Bloom is a Bloom filter over k hash functions and m bits, the state
// bank realization of distinct. Bits are epoch-tagged per word for the
// same lazy window reset as CountMin.
type Bloom struct {
	bits   uint32 // power of two
	k      int
	algo   Algo
	words  []uint64
	epochs []uint32
	epoch  uint32
}

// NewBloom builds a filter with m bits (rounded up to a power of two)
// and k hash functions.
func NewBloom(m uint32, k int, algo Algo) *Bloom {
	if m == 0 || k <= 0 {
		panic("sketch: bad Bloom geometry")
	}
	bits := nextPow2(m)
	if bits < 64 {
		bits = 64
	}
	return &Bloom{
		bits:   bits,
		k:      k,
		algo:   algo,
		words:  make([]uint64, bits/64),
		epochs: make([]uint32, bits/64),
	}
}

// Bits returns the filter size in bits.
func (b *Bloom) Bits() uint32 { return b.bits }

// Hashes returns the number of hash functions.
func (b *Bloom) Hashes() int { return b.k }

// NextEpoch starts a new window; previously set bits read as clear.
func (b *Bloom) NextEpoch() { b.epoch++ }

func (b *Bloom) pos(i int, key []byte) uint32 {
	return Fold(b.algo.Sum(key, uint32(i)*0x85EBCA6B+7), b.bits)
}

func (b *Bloom) getBit(p uint32) bool {
	w := p / 64
	if b.epochs[w] != b.epoch {
		return false
	}
	return b.words[w]&(1<<(p%64)) != 0
}

func (b *Bloom) setBit(p uint32) {
	w := p / 64
	if b.epochs[w] != b.epoch {
		b.epochs[w] = b.epoch
		b.words[w] = 0
	}
	b.words[w] |= 1 << (p % 64)
}

// TestAndSet inserts the key and reports whether it was (apparently)
// already present — the single-pass "have I seen this?" the distinct
// primitive needs.
func (b *Bloom) TestAndSet(key []byte) bool {
	seen := true
	for i := 0; i < b.k; i++ {
		p := b.pos(i, key)
		if !b.getBit(p) {
			seen = false
			b.setBit(p)
		}
	}
	return seen
}

// Contains reports apparent membership without inserting.
func (b *Bloom) Contains(key []byte) bool {
	for i := 0; i < b.k; i++ {
		if !b.getBit(b.pos(i, key)) {
			return false
		}
	}
	return true
}

// FalsePositiveRate returns the expected FPR after n insertions.
func (b *Bloom) FalsePositiveRate(n int) float64 {
	m := float64(b.bits)
	k := float64(b.k)
	return math.Pow(1-math.Exp(-k*float64(n)/m), k)
}

// MemoryBytes returns the bit-array footprint.
func (b *Bloom) MemoryBytes() int { return int(b.bits) / 8 }

func (b *Bloom) String() string {
	return fmt.Sprintf("bloom(m=%d,k=%d,%s)", b.bits, b.k, b.algo)
}
