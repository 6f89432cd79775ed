package sketch_test

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
)

// The Count-Min and Bloom sketches Newton measures with are the state
// bank's registers. These tests compile reduce and distinct queries, run
// packets through one switch's engine, and read the rows back as the
// analyzer does: each key at the slot its row's hash configuration
// addresses.

var (
	// countDst counts packets per DstIP; no count reaches its threshold.
	countDst = query.New("count_dst").ReduceCount(fields.DstIP).FilterResultGt(1 << 30).Build()
	// distinctDst inserts every DstIP into a Bloom filter.
	distinctDst = query.New("distinct_dst").Distinct(fields.DstIP).Build()
)

func options(rows, hashes int, width uint32) compiler.Options {
	o := compiler.AllOpts()
	o.QID, o.ReduceRows, o.DistinctHashes, o.Width = 1, rows, hashes, width
	return o
}

// sketchSwitch is one switch whose engine runs a single compiled query.
type sketchSwitch struct {
	sw  *dataplane.Switch
	eng *modules.Engine
}

func newSketchSwitch(t *testing.T, q *query.Query, o compiler.Options) *sketchSwitch {
	t.Helper()
	p, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, dataplane.TofinoStages, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	if err := eng.Install(p); err != nil {
		t.Fatal(err)
	}
	sw := dataplane.NewSwitch("s1", dataplane.TofinoStages, modules.StageCapacity())
	sw.Monitor = eng
	return &sketchSwitch{sw: sw, eng: eng}
}

// send runs n packets to DstIP dst through the switch.
func (s *sketchSwitch) send(dst uint32, n int) {
	pkt := packet.Packet{IP: packet.IPv4{Proto: packet.ProtoUDP, TTL: 64, Src: 1, Dst: dst}}
	for ; n > 0; n-- {
		s.sw.Process(&pkt)
	}
}

// least is the smallest register at dst's slots over the banks of the
// given kind: the Count-Min estimate of CMS rows, and zero iff some Bloom
// row lacks dst.
func least(banks []modules.BankSnapshot, kind modules.BankKind, dst uint32) uint32 {
	var v fields.Vector
	v.Set(fields.DstIP, uint64(dst))
	est := ^uint32(0)
	for i := range banks {
		b := &banks[i]
		if b.Kind != kind {
			continue
		}
		slot := b.Slot(b.KeyMask.Bytes(&v, nil))
		var c uint32
		if b.Kind == modules.BankBloomRow {
			c = uint32(b.Bits[slot/64]>>(slot%64)) & 1
		} else {
			c = b.Values[slot]
		}
		if c < est {
			est = c
		}
	}
	return est
}

func TestCountMinNeverUndercounts(t *testing.T) {
	const rows, width = 3, 1024
	s := newSketchSwitch(t, countDst, options(rows, 0, width))
	truth := map[uint32]uint32{}
	var total uint64
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		k := 0x0A000000 + uint32(rng.Intn(300))
		d := rng.Intn(10) + 1
		truth[k] += uint32(d)
		total += uint64(d)
		s.send(k, d)
	}
	banks := s.eng.SnapshotBanks()
	bound := sketch.CMSAbsError(width, total)
	over := 0
	for k, want := range truth {
		got := least(banks, modules.BankCMSRow, k)
		if got < want {
			t.Fatalf("undercount for %x: got %d, want >= %d", k, got, want)
		}
		if float64(got-want) > bound {
			over++
		}
	}
	// The bound holds for each key with probability 1 - e^-rows.
	if limit := math.Ceil(math.Exp(-rows) * float64(len(truth))); float64(over) > limit {
		t.Errorf("%d of %d keys overcount past ε·N = %.1f, want at most %.0f", over, len(truth), bound, limit)
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	s := newSketchSwitch(t, countDst, options(4, 0, 1<<14))
	for i := uint32(0); i < 50; i++ {
		s.send(0x0A000000+i, int(i)+1)
	}
	banks := s.eng.SnapshotBanks()
	for i := uint32(0); i < 50; i++ {
		if got := least(banks, modules.BankCMSRow, 0x0A000000+i); got != i+1 {
			t.Errorf("estimate(%d) = %d, want %d", i, got, i+1)
		}
	}
	if got := least(banks, modules.BankCMSRow, 0x0B000000); got != 0 {
		t.Errorf("absent key estimate = %d, want 0 (sparse)", got)
	}
}

func TestCountMinEpochReset(t *testing.T) {
	s := newSketchSwitch(t, countDst, options(2, 0, 256))
	s.send(7, 100)
	s.eng.RollEpoch()
	if got := least(s.eng.SnapshotBanks(), modules.BankCMSRow, 7); got != 0 {
		t.Errorf("after the roll estimate = %d, want 0", got)
	}
	s.send(7, 3)
	if got := least(s.eng.SnapshotBanks(), modules.BankCMSRow, 7); got != 3 {
		t.Errorf("fresh epoch estimate = %d, want 3", got)
	}
}

func TestCountMinAccuracyImprovesWithWidth(t *testing.T) {
	// The core of Figure 14's shape: bigger arrays, smaller error.
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, 2000)
	for i := range keys {
		keys[i] = 0x0A000000 + uint32(rng.Intn(500))
	}
	errAt := func(width uint32) (sum uint32) {
		s := newSketchSwitch(t, countDst, options(3, 0, width))
		truth := map[uint32]uint32{}
		for _, k := range keys {
			truth[k]++
			s.send(k, 1)
		}
		banks := s.eng.SnapshotBanks()
		for k, want := range truth {
			sum += least(banks, modules.BankCMSRow, k) - want
		}
		return sum
	}
	if small, large := errAt(256), errAt(4096); small <= large {
		t.Errorf("error did not shrink with width: %d (256) vs %d (4096)", small, large)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	s := newSketchSwitch(t, distinctDst, options(0, 3, 1<<14))
	for i := uint32(0); i < 2000; i++ {
		s.send(0x0A000000+i, 1)
	}
	banks := s.eng.SnapshotBanks()
	for i := uint32(0); i < 2000; i++ {
		if least(banks, modules.BankBloomRow, 0x0A000000+i) == 0 {
			t.Fatalf("false negative for %d", i)
		}
	}
}

// TestBloomTestAndSetSemantics: distinct passes a key's first packet on
// and stops its repeats, so a count behind it sees each key once.
func TestBloomTestAndSetSemantics(t *testing.T) {
	firsts := query.New("first_sightings").Distinct(fields.DstIP).
		ReduceCount(fields.DstIP).FilterResultGt(1 << 30).Build()
	s := newSketchSwitch(t, firsts, options(2, 4, 1<<14))
	s.send(1, 1)
	if got := least(s.eng.SnapshotBanks(), modules.BankCMSRow, 1); got != 1 {
		t.Errorf("fresh key counted %d times past distinct, want 1", got)
	}
	s.send(1, 1)
	if got := least(s.eng.SnapshotBanks(), modules.BankCMSRow, 1); got != 1 {
		t.Errorf("repeated key counted %d times past distinct, want 1", got)
	}
}

// TestBloomFPRMatchesTheory samples the false-positive rate of the
// registers a distinct filled, against the estimate the telemetry plane
// publishes from their fills alone.
func TestBloomFPRMatchesTheory(t *testing.T) {
	const width = 2048
	s := newSketchSwitch(t, distinctDst, options(0, 3, width))
	for i := uint32(0); i < 1000; i++ {
		s.send(0x0A000000+i, 1)
	}
	banks := s.eng.SnapshotBanks()
	var fills []float64
	for _, b := range banks {
		nonzero := 0
		for _, w := range b.Bits {
			nonzero += bits.OnesCount64(w)
		}
		fills = append(fills, sketch.BloomRowFill(nonzero, b.Width))
	}
	if len(fills) != 3 {
		t.Fatalf("%d Bloom rows, want 3", len(fills))
	}
	const trials = 20000
	fp := 0
	for i := uint32(0); i < trials; i++ {
		if least(banks, modules.BankBloomRow, 0xC0000000+i) != 0 {
			fp++
		}
	}
	got, want := float64(fp)/trials, sketch.BloomFPPFromFills(fills)
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("sampled FPR %.4f, estimate from fills %.4f", got, want)
	}
}

func TestBloomEpochReset(t *testing.T) {
	s := newSketchSwitch(t, distinctDst, options(0, 2, 1024))
	s.send(5, 1)
	s.eng.RollEpoch()
	if least(s.eng.SnapshotBanks(), modules.BankBloomRow, 5) != 0 {
		t.Error("stale bit visible after the roll")
	}
	s.send(5, 1)
	if least(s.eng.SnapshotBanks(), modules.BankBloomRow, 5) == 0 {
		t.Error("key inserted after the roll is missing")
	}
}
