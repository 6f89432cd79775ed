package modules

import (
	"math/bits"
	"slices"

	"github.com/newton-net/newton/internal/dataplane"
)

// This file is the lane's newton_init dispatch: classify → interned
// match set → fixed flow table. A packet whose 5-tuple the lane has
// seen at the current classifier version is served by one probe of a
// set-associative table; any other packet is classified (compiled
// classifier or scan fallback, whichever newton_init is on), its match
// list is interned, and one way of one set is overwritten. Nothing on
// either path allocates per flow, and the table's size is bounded by the
// constants below — not by how many flows cross the switch.

const (
	// flowWays is the table's associativity. A set's 16 fingerprints are
	// 32 contiguous bytes, so a probe that misses reads half a cache line.
	flowWays = 16
	// slotHdrWords is a slot header: the two key words and the index of
	// the slot's match set.
	slotHdrWords = 3
	// minFlowSlots is a lane's table until a set fills up; maxFlowSlots is
	// where doubling stops and eviction starts. The dispatch key includes
	// the TCP flags, so a connection is several keys: the 2000-flow
	// evaluation set of the benchmark's steady workload is 9336 of them,
	// and 16384 slots in sets of 16 hold those with 0.4% conflict misses
	// (8192 slots miss 20%; 16384 in sets of 8, 1.8%). A slot is 26 bytes,
	// so a lane's table is at most 416 KiB. No one size serves both ends:
	// four engines that each see a dozen flows (the benchmark's churn
	// workload) would carry 1.7 MB of empty 16384-slot tables on a 4.5 MB
	// heap.
	minFlowSlots = 256
	maxFlowSlots = 1 << 14
)

// dispatchKey is the newton_init classifier input — the packet's
// 5-tuple plus TCP flags — packed into two words (the fields' natural
// widths sum to 112 bits).
type dispatchKey [2]uint64

// chain is one resolved newton_init match: the branch to run.
type chain struct {
	prog   *Program
	branch *BranchProgram
}

// matchSet is one interned newton_init result: the chains of every
// matching rule, in match order. There are as many distinct sets as
// the classifier has leaves (six on the evaluation trace), so they are
// built once per class per rule change and shared by every flow of the
// class.
type matchSet struct {
	rules  []*dataplane.Rule // identity: the match list this set was built from
	chains []chain
}

// flowTable is a lane's dispatch state. Single-writer: only the lane's
// goroutine touches it.
type flowTable struct {
	// version is the classifier version the entries and the interned sets
	// belong to.
	version uint64

	slots int // current slot count: a power-of-two multiple of flowWays
	limit int // where doubling stops (maxFlowSlots)
	seed  [2]uint64

	// Two flat arrays indexed by slot, a set's flowWays slots adjacent.
	// fps holds a 15-bit fingerprint of the slot's key hash, low bit set;
	// 0 marks a free slot, so a rule change frees every slot by clearing
	// fps alone. hdr holds slotHdrWords words per slot.
	fps []uint16
	hdr []uint64

	sets    []matchSet
	scratch []*dataplane.Rule // newton_init lookup result, reused per miss
}

func newFlowTable(seed [2]uint64) flowTable {
	return flowTable{
		seed:    seed,
		version: ^uint64(0), // no classifier version yet: the first packet retargets
		slots:   minFlowSlots,
		limit:   maxFlowSlots,
		fps:     make([]uint16, minFlowSlots),
		hdr:     make([]uint64, minFlowSlots*slotHdrWords),
	}
}

// retarget points the table at a new classifier version: interned sets
// are dropped and every slot is freed. The arrays carry over as they
// are (the next version's traffic is mostly this one's), so a rule
// change allocates nothing.
func (t *flowTable) retarget(version uint64) {
	t.version = version
	clear(t.sets)
	t.sets = t.sets[:0]
	clear(t.fps)
}

// resize moves the table into arrays of another slot count (twice as
// many: a set's entries spread over the two sets it splits into),
// entries included. Carrying them is what lets a lane that has seen
// every flow once never resize again: a table that started over empty
// would be filled by the next pass over the same flows, and one engine
// in fifty on the scaling experiment's trace then still doubled during
// the third pass.
func (t *flowTable) resize(slots int) {
	old := *t
	t.slots = slots
	t.fps = make([]uint16, slots)
	t.hdr = make([]uint64, slots*slotHdrWords)
	for s, fp := range old.fps {
		if fp == 0 {
			continue
		}
		e := old.hdr[s*slotHdrWords : (s+1)*slotHdrWords]
		to := t.free(t.hash(&dispatchKey{e[0], e[1]}))
		t.fps[to] = fp
		copy(t.hdr[to*slotHdrWords:], e)
	}
}

// hash mixes a dispatch key with the engine's seed (two rounds of the
// wyhash multiply-fold), so which 5-tuples share a set cannot be
// computed without the seed. The low bits select the set, the high
// bits are the fingerprint.
func (t *flowTable) hash(k *dispatchKey) uint64 {
	hi, lo := bits.Mul64(k[0]^t.seed[0], k[1]^t.seed[1])
	hi, lo = bits.Mul64(hi^t.seed[1], lo^t.seed[0])
	return hi ^ lo
}

// set returns the first slot of the set h selects.
func (t *flowTable) set(h uint64) int {
	return int(h&uint64(t.slots/flowWays-1)) * flowWays
}

// find returns the match set of the slot holding k, or nil.
func (t *flowTable) find(k *dispatchKey, h uint64) *matchSet {
	fp, first := uint16(h>>48)|1, t.set(h)
	for w, have := range t.fps[first : first+flowWays] {
		if have != fp {
			continue
		}
		slot := first + w
		if e := t.hdr[slot*slotHdrWords : (slot+1)*slotHdrWords]; e[0] == k[0] && e[1] == k[1] {
			return &t.sets[e[2]]
		}
	}
	return nil
}

// free returns a free slot of the set h selects, or -1.
func (t *flowTable) free(h uint64) int {
	first := t.set(h)
	if w := slices.Index(t.fps[first:first+flowWays], 0); w >= 0 {
		return first + w
	}
	return -1
}

// insert records k → the interned set of rules (newton_init's matches
// for k, in match order) in a free slot of k's set, doubling the table
// while the set has none. At the table's limit it evicts instead: the
// way rot picks is overwritten.
func (t *flowTable) insert(k *dispatchKey, h uint64, rules []*dataplane.Rule, rot uint64) (set *matchSet, evicted bool) {
	slot := t.free(h)
	for slot < 0 && t.slots < t.limit {
		t.resize(2 * t.slots)
		slot = t.free(h)
	}
	if slot < 0 {
		slot, evicted = t.set(h)+int(rot%flowWays), true
	}
	t.fps[slot] = uint16(h>>48) | 1
	e := t.hdr[slot*slotHdrWords : (slot+1)*slotHdrWords]
	si := t.intern(rules)
	e[0], e[1], e[2] = k[0], k[1], uint64(si)
	return &t.sets[si], evicted
}

// intern returns the index of the match set for a newton_init result,
// building it on first sight at this classifier version.
func (t *flowTable) intern(rules []*dataplane.Rule) int {
	for i := range t.sets {
		if slices.Equal(t.sets[i].rules, rules) {
			return i
		}
	}
	s := matchSet{
		rules:  slices.Clone(rules),
		chains: make([]chain, 0, len(rules)),
	}
	for _, r := range rules {
		ca, ok := r.Action.(chainAction)
		if !ok {
			continue
		}
		s.chains = append(s.chains, chain{prog: ca.prog, branch: ca.branch})
	}
	t.sets = append(t.sets, s)
	return len(t.sets) - 1
}
