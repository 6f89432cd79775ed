// Package classify compiles a ternary rule set into chained lookup
// tables so classification costs O(dimensions) per packet instead of
// O(rules): one table probe per match column plus one cross-product
// probe per column pair, with the final leaf holding the complete
// priority-ordered match set precomputed at compile time.
//
// The structure mirrors hardware ACL compilers (and yanet2's filter
// compiler): each column becomes a "dimension" mapping an input value
// to an equivalence-class ID — a sorted interval table when every mask
// in the column is a prefix, a dense value table when the column's care
// bits fit 16 bits, either one under a sorted table of the column's
// full 64-bit masks when the rest are narrower — and the per-dimension
// classes are folded pairwise through cross-product tables whose cells
// name the class of the combined constraint. Compilation is bounded by
// a configurable budget (table cells and compile work); a rule set that
// exceeds it, or whose masks fit no dimension strategy, is refused with
// ErrBudget or ErrMaskShape. There is no other way to classify: a
// caller that cannot compile a rule set does not install it.
//
// The package is self-contained (no dataplane dependency): rules are
// value/mask columns, results are indices into the input rule slice.
// Callers pass rules in match order, so the ascending index lists the
// leaves hold are already priority-ordered match sets.
package classify

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Rule is one ternary rule: per-column value/mask pairs. A rule matches
// input vals iff vals[c]&Masks[c] == Values[c]&Masks[c] for every
// column c — exactly the dataplane's ternary discipline.
type Rule struct {
	Values []uint64
	Masks  []uint64
}

// Config bounds compilation. Zero fields take the defaults.
type Config struct {
	// MaxCells caps the total lookup-table cells (dense entries,
	// interval segments, points, cross-product cells). Exceeding it
	// refuses the compile — the cross-product blowup guard.
	MaxCells int
	// MaxWork caps abstract compile-time work units (predicate
	// evaluations, list merges), so a pathological rule set cannot
	// stall the install path.
	MaxWork int
}

// DefaultConfig returns the default compilation budget: at most 1M
// table cells (4 MB of uint32 cells) and 16M work units.
func DefaultConfig() Config {
	return Config{MaxCells: 1 << 20, MaxWork: 1 << 24}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.MaxCells == 0 {
		c.MaxCells = d.MaxCells
	}
	if c.MaxWork == 0 {
		c.MaxWork = d.MaxWork
	}
	return c
}

// The reasons Compile refuses a rule set; a refusal wraps one of them.
var (
	// ErrMaskShape: a column's masks (full 64-bit ones aside) are
	// neither all prefixes nor within 16 bits of care.
	ErrMaskShape = errors.New("masks are neither prefixes nor within 16 bits of care")
	// ErrBudget: the structure would exceed Config.MaxCells or MaxWork.
	ErrBudget = errors.New("over the compile budget")
)

type dimKind uint8

const (
	dimDense dimKind = iota
	dimInterval
)

// dim maps one column's input value to an equivalence-class ID. Its
// slices are windows on the Compiled's packed arrays, immutable after
// compile; classOf is lock-free and allocation-free.
type dim struct {
	kind dimKind
	col  int    // original column index
	mask uint64 // dense: index mask (size-1); interval: domain mask

	cells  []uint32 // dense: masked value -> class; interval: segment -> class
	bounds []uint64 // interval: ascending segment lower bounds, bounds[0]==0

	// points: ascending full-mask values of a column whose other masks
	// are narrower, and their classes; consulted ahead of the above.
	points []uint64
	pcls   []uint32

	// cross folds the previous level's class with this dimension's:
	// cross[prev*nclass+class]. Empty on the first dimension.
	cross  []uint32
	nclass uint32
}

// classOf returns the equivalence class of v in this dimension.
func (d *dim) classOf(v uint64) uint32 {
	if len(d.points) != 0 {
		if i, ok := slices.BinarySearch(d.points, v); ok {
			return d.pcls[i]
		}
	}
	if d.kind == dimDense {
		return d.cells[v&d.mask]
	}
	// Interval: greatest i with bounds[i] <= v&mask. bounds[0]==0, so
	// the search never falls off the left edge.
	i, ok := slices.BinarySearch(d.bounds, v&d.mask)
	if !ok {
		i--
	}
	return d.cells[i]
}

// Compiled is the immutable compiled classifier, packed into a few
// arrays. Lookup is lock-free and performs zero allocations; the
// returned slices are shared read-only state.
type Compiled struct {
	dims []dim // probe order (ascending class count)
	// leaf holds, for final class c, the ascending rule indices
	// leaf[leaf[c]:leaf[c+1]]: the offsets come first, then the lists.
	leaf []int32
}

// Lookup classifies vals (one value per original column) and returns
// the ascending — i.e. match-ordered — indices of every matching rule.
// The slice is shared and must not be mutated. Zero allocations.
func (c *Compiled) Lookup(vals []uint64) []int32 {
	var cls uint32
	for i := range c.dims {
		d := &c.dims[i]
		if i == 0 {
			cls = d.classOf(vals[d.col])
		} else {
			cls = d.cross[cls*d.nclass+d.classOf(vals[d.col])]
		}
	}
	return c.leaf[c.leaf[cls]:c.leaf[cls+1]]
}

// Compile builds the chained lookup structure for rules (given in match
// order: priority descending, ties already broken) with a compiler of
// its own. A table that compiles on every write keeps a Compiler.
func Compile(cols int, rules []Rule, cfg Config) (*Compiled, error) {
	var k Compiler
	return k.Compile(cols, rules, cfg)
}

// Compiler compiles rule sets, keeping its working storage from one
// compile to the next so that a steady stream of small compiles
// allocates only the Compiled each returns. Not safe for concurrent use.
type Compiler struct {
	workLeft, cellsLeft int // the budget still unspent

	// Per column: the distinct (value&mask, mask) predicates, each
	// rule's predicate, and the predicates' rule lists end to end.
	predIdx   map[[2]uint64]int32
	preds     []pred
	predOf    []int32
	predRules []int32

	// Class lists live in arena; head and next index the class set
	// being interned by list hash.
	arena []int32
	head  map[uint64]uint32
	next  []uint32
	buf   []int32 // the list under construction

	// Packed output under construction, copied out at the end.
	cellBuf  []uint32
	boundBuf []uint64

	plans []dimPlan
	level [2]classSet // the cross-product fold's two alternating levels

	// Interval sweep scratch.
	byStart, byEnd []span
	active         []int32
	dead           []bool

	// Dense table scratch.
	sets     []predSet
	remapBuf []int32
}

// pred is one distinct (val, mask) column predicate; its ascending rule
// indices are Compiler.predRules[lo:hi]. Each rule contributes exactly
// one predicate per column, so predicate rule lists are disjoint.
type pred struct {
	val, mask uint64
	lo, hi    int32
}

// span is one predicate's interval [lo, hi] of a column's domain.
type span struct {
	lo, hi uint64
	p      int32
}

// classSet is the class IDs of one dimension or fold level: class i is
// the rule list Compiler.arena[lists[i][0]:lists[i][1]].
type classSet struct{ lists [][2]int32 }

// dimPlan is a dimension under construction, as offsets into the
// compiler's cell and bound buffers: cells [c0,c1) are the dense table
// or interval classes and [c1,c2) the point classes, bounds [b0,b1) the
// interval bounds and [b1,b2) the point values, cells [x0,x1) the cross
// table folding it into the previous level.
type dimPlan struct {
	kind       dimKind
	col        int
	mask       uint64
	c0, c1, c2 int
	b0, b1, b2 int
	x0, x1     int
	classes    classSet
}

// at returns the dimension over the given cell and bound arrays.
func (p *dimPlan) at(cells []uint32, bounds []uint64) dim {
	return dim{
		kind: p.kind, col: p.col, mask: p.mask,
		cells: cells[p.c0:p.c1], bounds: bounds[p.b0:p.b1],
		pcls: cells[p.c1:p.c2], points: bounds[p.b1:p.b2],
		cross: cells[p.x0:p.x1], nclass: uint32(len(p.classes.lists)),
	}
}

// Compile is the package-level Compile on k's storage. It refuses,
// wrapping ErrMaskShape or ErrBudget, when a column's masks (its full
// 64-bit masks aside) are neither all-prefix nor within 16 bits of care,
// or when the structure would exceed cfg's budget.
func (k *Compiler) Compile(cols int, rules []Rule, cfg Config) (*Compiled, error) {
	cfg = cfg.normalized()
	n := len(rules)
	if cols <= 0 || n > 1<<30 {
		return nil, fmt.Errorf("classify: %d columns, %d rules", cols, n)
	}
	for i := range rules {
		if len(rules[i].Values) != cols || len(rules[i].Masks) != cols {
			return nil, fmt.Errorf("classify: rule %d has %d values and %d masks, want %d",
				i, len(rules[i].Values), len(rules[i].Masks), cols)
		}
	}
	k.workLeft, k.cellsLeft = cfg.MaxWork, cfg.MaxCells
	if k.predIdx == nil {
		k.predIdx = make(map[[2]uint64]int32)
		k.head = make(map[uint64]uint32)
	}
	k.arena, k.cellBuf, k.boundBuf = k.arena[:0], k.cellBuf[:0], k.boundBuf[:0]
	k.predOf = slices.Grow(k.predOf[:0], n)[:n]

	np := 0
	for col := 0; col < cols; col++ {
		var care uint64
		for i := range rules {
			care |= rules[i].Masks[col]
		}
		if care == 0 {
			// Every rule wildcards this column: it constrains nothing.
			continue
		}
		if np == len(k.plans) {
			k.plans = append(k.plans, dimPlan{})
		}
		p := &k.plans[np]
		np++
		*p = dimPlan{col: col, classes: classSet{lists: p.classes.lists[:0]}}
		k.buildPreds(rules, col)
		if err := k.buildDim(p); err != nil {
			if err == ErrBudget {
				err = k.overBudget(cfg)
			}
			return nil, fmt.Errorf("classify: column %d: %w", col, err)
		}
	}
	plans := k.plans[:np]
	if np == 0 {
		// Every column wildcarded (or no rules): one leaf matching all.
		leaf := make([]int32, 2+n)
		leaf[0], leaf[1] = 2, int32(2+n)
		for i := range n {
			leaf[2+i] = int32(i)
		}
		return &Compiled{leaf: leaf}, nil
	}

	// Fold narrow dimensions first: intermediate class counts (and so
	// cross-table sizes) stay minimal.
	slices.SortStableFunc(plans, func(a, b dimPlan) int {
		return cmp.Compare(len(a.classes.lists), len(b.classes.lists))
	})
	cur := &plans[0].classes
	for i := 1; i < np; i++ {
		p := &plans[i]
		aC, bC := len(cur.lists), len(p.classes.lists)
		if !k.takeCells(aC * bC) {
			return nil, fmt.Errorf("classify: cross product: %w", k.overBudget(cfg))
		}
		p.x0 = len(k.cellBuf)
		k.cellBuf = slices.Grow(k.cellBuf, aC*bC)[:p.x0+aC*bC]
		p.x1 = len(k.cellBuf)
		nxt := &k.level[i&1]
		k.reset(nxt)
		for ai, a := range cur.lists {
			for bi, b := range p.classes.lists {
				la, lb := k.list(a), k.list(b)
				if !k.takeWork(min(len(la), len(lb)) + 1) {
					return nil, fmt.Errorf("classify: cross product: %w", k.overBudget(cfg))
				}
				k.buf = intersect(k.buf[:0], la, lb)
				k.cellBuf[p.x0+ai*bC+bi] = k.id(nxt, k.buf)
			}
		}
		cur = nxt
	}

	// Copy the packed arrays out: the leaves' offsets then their lists,
	// and every dimension's cells and bounds in one array each.
	total := 0
	for _, l := range cur.lists {
		total += len(k.list(l))
	}
	leaf := make([]int32, len(cur.lists)+1, len(cur.lists)+1+total)
	for i, l := range cur.lists {
		leaf[i] = int32(len(leaf))
		leaf = append(leaf, k.list(l)...)
	}
	leaf[len(cur.lists)] = int32(len(leaf))
	cells := slices.Clone(k.cellBuf)
	bounds := slices.Clone(k.boundBuf)
	c := &Compiled{dims: make([]dim, np), leaf: leaf}
	for i := range plans {
		c.dims[i] = plans[i].at(cells, bounds)
	}
	return c, nil
}

func (k *Compiler) takeCells(n int) bool {
	k.cellsLeft -= n
	return k.cellsLeft >= 0
}

func (k *Compiler) takeWork(n int) bool {
	k.workLeft -= n
	return k.workLeft >= 0
}

// overBudget names the exhausted knob.
func (k *Compiler) overBudget(cfg Config) error {
	if k.cellsLeft < 0 {
		return fmt.Errorf("%w (MaxCells %d)", ErrBudget, cfg.MaxCells)
	}
	return fmt.Errorf("%w (MaxWork %d)", ErrBudget, cfg.MaxWork)
}

// buildPreds collects column col's distinct predicates into k.preds,
// each with its ascending rule list in k.predRules.
func (k *Compiler) buildPreds(rules []Rule, col int) {
	clear(k.predIdx)
	k.preds = k.preds[:0]
	for i := range rules {
		m := rules[i].Masks[col]
		key := [2]uint64{rules[i].Values[col] & m, m}
		j, ok := k.predIdx[key]
		if !ok {
			j = int32(len(k.preds))
			k.predIdx[key] = j
			k.preds = append(k.preds, pred{val: key[0], mask: m})
		}
		k.predOf[i] = j
		k.preds[j].hi++
	}
	// Counts to ranges, then place each rule in ascending order.
	off := int32(0)
	for j := range k.preds {
		cnt := k.preds[j].hi
		k.preds[j].lo, k.preds[j].hi = off, off
		off += cnt
	}
	k.predRules = slices.Grow(k.predRules[:0], len(rules))[:len(rules)]
	for i, j := range k.predOf[:len(rules)] {
		k.predRules[k.preds[j].hi] = int32(i)
		k.preds[j].hi++
	}
}

func (k *Compiler) rulesOf(p *pred) []int32 { return k.predRules[p.lo:p.hi] }

// buildDim picks the column strategy: sorted intervals when every mask
// is a width-W prefix (exact masks of that width included — they are
// point intervals), a dense value table when the care bits fit 16 bits,
// otherwise uncompilable. A full 64-bit mask beside narrower ones (what
// a rule installed without masks carries) fits neither domain: those
// predicates are set aside, the rest pick the strategy, and addPoints
// lays them over it by value.
func (k *Compiler) buildDim(p *dimPlan) error {
	const full = ^uint64(0)
	preds := k.preds
	var care uint64
	nfull := 0
	for i := range preds {
		if preds[i].mask == full {
			nfull++
		} else {
			care |= preds[i].mask
		}
	}
	w := bits.Len64(care)
	var points []pred
	switch {
	case w == 0 || w == 64:
		// Nothing narrower: full masks are point intervals of the
		// 64-bit domain.
		care, w = full, 64
	case nfull > 0:
		// Full masks last, ascending by value.
		slices.SortFunc(preds, func(a, b pred) int {
			if (a.mask == full) != (b.mask == full) {
				if a.mask == full {
					return 1
				}
				return -1
			}
			return cmp.Compare(a.val, b.val)
		})
		preds, points = preds[:len(preds)-nfull], preds[len(preds)-nfull:]
	}
	allPrefix := true
	for i := range preds {
		if m := preds[i].mask; m != 0 && !isPrefixAt(m, w) {
			allPrefix = false
			break
		}
	}
	p.c0, p.b0 = len(k.cellBuf), len(k.boundBuf)
	var ok bool
	switch {
	case allPrefix:
		ok = k.buildInterval(p, preds, w)
	case care <= 0xFFFF:
		ok = k.buildDense(p, preds, care)
	default:
		return ErrMaskShape
	}
	p.c1, p.b1 = len(k.cellBuf), len(k.boundBuf)
	p.c2, p.b2 = p.c1, p.b1
	if !ok || !k.addPoints(p, points) {
		return ErrBudget
	}
	return nil
}

// addPoints gives each full-mask predicate its own class: the rules the
// narrower structure matches at that value plus the predicate's own. A
// rule carries one predicate a column, so no two such classes are equal
// and none equals a class of the structure below. points are ascending
// by value.
func (k *Compiler) addPoints(p *dimPlan, points []pred) bool {
	if len(points) == 0 {
		return true
	}
	if !k.takeCells(len(points)) {
		return false
	}
	under := p.at(k.cellBuf, k.boundBuf)
	for i := range points {
		u := k.list(p.classes.lists[under.classOf(points[i].val)])
		own := k.rulesOf(&points[i])
		if !k.takeWork(len(u) + len(own) + 1) {
			return false
		}
		l := append(append(k.buf[:0], u...), own...)
		slices.Sort(l)
		k.buf = l
		k.boundBuf = append(k.boundBuf, points[i].val)
		k.cellBuf = append(k.cellBuf, k.add(&p.classes, l))
	}
	p.c2, p.b2 = len(k.cellBuf), len(k.boundBuf)
	return true
}

// isPrefixAt reports whether m is a contiguous run of ones whose top
// bit is w-1 — a prefix within the dimension's w-bit care domain, so
// its match set is one interval of that domain.
func isPrefixAt(m uint64, w int) bool {
	if bits.Len64(m) != w {
		return false
	}
	run := m >> uint(bits.TrailingZeros64(m))
	return run&(run+1) == 0
}

// buildInterval compiles a prefix-masked column into a sorted segment
// table: predicate interval endpoints partition the w-bit domain into
// segments of constant match set; a sweep computes each segment's rule
// list and dedupes identical lists into classes.
func (k *Compiler) buildInterval(p *dimPlan, preds []pred, w int) bool {
	domain := ^uint64(0)
	if w < 64 {
		domain = 1<<uint(w) - 1
	}
	p.kind, p.mask = dimInterval, domain
	k.byStart = k.byStart[:0]
	k.boundBuf = append(k.boundBuf, 0)
	for i := range preds {
		lo := preds[i].val & preds[i].mask
		hi := lo | (domain &^ preds[i].mask)
		k.byStart = append(k.byStart, span{lo, hi, int32(i)})
		k.boundBuf = append(k.boundBuf, lo)
		if hi < domain {
			k.boundBuf = append(k.boundBuf, hi+1)
		}
	}
	bounds := k.boundBuf[p.b0:]
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	k.boundBuf = k.boundBuf[:p.b0+len(bounds)]
	if !k.takeCells(len(bounds)) {
		return false
	}

	k.byEnd = append(k.byEnd[:0], k.byStart...)
	slices.SortFunc(k.byStart, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	slices.SortFunc(k.byEnd, func(a, b span) int { return cmp.Compare(a.hi, b.hi) })

	k.reset(&p.classes)
	active := k.active[:0] // live predicate ids, lazily compacted
	dead := slices.Grow(k.dead[:0], len(preds))[:len(preds)]
	clear(dead)
	deadCount := 0
	si, ei := 0, 0
	for _, b := range bounds {
		for ei < len(k.byEnd) && k.byEnd[ei].hi < b {
			dead[k.byEnd[ei].p] = true
			deadCount++
			ei++
		}
		for si < len(k.byStart) && k.byStart[si].lo <= b {
			active = append(active, k.byStart[si].p)
			si++
		}
		if deadCount*2 > len(active) {
			live := active[:0]
			for _, pi := range active {
				if !dead[pi] {
					live = append(live, pi)
				}
			}
			active = live
			deadCount = 0
		}
		l := k.buf[:0]
		for _, pi := range active {
			if !dead[pi] {
				l = append(l, k.rulesOf(&preds[pi])...)
			}
		}
		if !k.takeWork(len(l) + len(active) + 1) {
			return false
		}
		slices.Sort(l)
		k.buf = l
		k.cellBuf = append(k.cellBuf, k.id(&p.classes, l))
	}
	k.active, k.dead = active, dead
	return true
}

// buildDense compiles a small-care column into a dense value table
// sized to the next power of two covering the care mask: every input
// value reduces to its masked low bits, and each table slot names the
// class of that value's match set.
//
// A value's match set is the rules of the predicates it matches, and
// since predicates' rule lists are disjoint and never empty, distinct
// predicate sets are distinct classes: no list needs hashing. The
// predicates are laid over the table one at a time, each moving every
// value it matches from its set to that set plus itself — a set no
// value had before, since the predicate is new.
func (k *Compiler) buildDense(p *dimPlan, preds []pred, care uint64) bool {
	size := 1 << uint(bits.Len64(care)) // care <= 0xFFFF, so size <= 65536
	if !k.takeCells(size) || !k.takeWork(size*(len(preds)+1)) {
		return false
	}
	p.kind, p.mask = dimDense, uint64(size-1)
	c0 := len(k.cellBuf)
	k.cellBuf = slices.Grow(k.cellBuf, size)[:c0+size]
	cells := k.cellBuf[c0:]
	clear(cells)
	// Set 0 is the empty one; set i > 0 is set sets[i].parent plus
	// predicate sets[i].pred.
	k.sets = append(k.sets[:0], predSet{})
	for pi := range preds {
		next := k.remap(len(k.sets))
		free := p.mask &^ preds[pi].mask
		for sub := free; ; sub = (sub - 1) & free {
			v := preds[pi].val | sub
			if next[cells[v]] < 0 {
				next[cells[v]] = int32(len(k.sets))
				k.sets = append(k.sets, predSet{parent: int32(cells[v]), pred: int32(pi)})
			}
			cells[v] = uint32(next[cells[v]])
			if sub == 0 {
				break
			}
		}
	}
	// The sets some value still has are the classes, numbered in value
	// order.
	id := k.remap(len(k.sets))
	for v, set := range cells {
		if id[set] < 0 {
			id[set] = int32(len(p.classes.lists))
			l := k.buf[:0]
			for n := set; n != 0; n = uint32(k.sets[n].parent) {
				l = append(l, k.rulesOf(&preds[k.sets[n].pred])...)
			}
			slices.Sort(l)
			k.buf = l
			k.add(&p.classes, l)
		}
		cells[v] = uint32(id[set])
	}
	return true
}

// predSet is one predicate set of buildDense: its parent set plus pred.
type predSet struct{ parent, pred int32 }

// remap returns k.remapBuf holding n entries of -1.
func (k *Compiler) remap(n int) []int32 {
	k.remapBuf = slices.Grow(k.remapBuf[:0], n)[:n]
	for i := range k.remapBuf {
		k.remapBuf[i] = -1
	}
	return k.remapBuf
}

// reset empties cs and the dedupe index, which then serves cs.
func (k *Compiler) reset(cs *classSet) {
	cs.lists = cs.lists[:0]
	clear(k.head)
	k.next = k.next[:0]
}

// id returns the class of l in cs (the set last reset), copying l into
// the arena only if it is new. l must be sorted.
func (k *Compiler) id(cs *classSet, l []int32) uint32 {
	h := hashList(l)
	for j := k.head[h]; j != 0; j = k.next[j-1] {
		if slices.Equal(k.list(cs.lists[j-1]), l) {
			return j - 1
		}
	}
	id := k.add(cs, l)
	k.next = append(k.next, k.head[h])
	k.head[h] = id + 1
	return id
}

// add appends l to cs as a new class, copying it into the arena.
func (k *Compiler) add(cs *classSet, l []int32) uint32 {
	lo := int32(len(k.arena))
	k.arena = append(k.arena, l...)
	cs.lists = append(cs.lists, [2]int32{lo, int32(len(k.arena))})
	return uint32(len(cs.lists) - 1)
}

// list returns a class's rule list.
func (k *Compiler) list(c [2]int32) []int32 { return k.arena[c[0]:c[1]] }

func hashList(l []int32) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, v := range l {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}

// intersect appends the intersection of two ascending lists to out,
// ascending. When one side is much shorter it gallops with binary
// search instead of merging — the common case of a point class against
// a wildcard class holding every rule.
func intersect(out, a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= 16*len(a) {
		for _, v := range a {
			if _, ok := slices.BinarySearch(b, v); ok {
				out = append(out, v)
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
