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
// bits fit 16 bits, either one under a by-value table of the column's
// full 64-bit masks when the rest are narrower — and the per-dimension
// classes are folded pairwise through cross-product tables whose cells
// name the class of the combined constraint. Compilation is bounded by
// a configurable budget
// (table cells and compile work); rule sets that exceed it, or whose
// masks fit no dimension strategy, return nil and the caller keeps its
// linear ternary scan, which remains the correctness oracle.
//
// The package is self-contained (no dataplane dependency): rules are
// value/mask columns, results are indices into the input rule slice.
// Callers pass rules in match order, so the ascending index lists the
// leaves hold are already priority-ordered match sets.
package classify

import (
	"math/bits"
	"sort"
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
	// MinRules is the smallest rule count worth compiling; below it a
	// linear scan is already cheap and Compile returns nil.
	MinRules int
	// MaxCells caps the total lookup-table cells (dense entries,
	// interval segments, cross-product cells). Exceeding it aborts
	// compilation — the cross-product blowup guard.
	MaxCells int
	// MaxWork caps abstract compile-time work units (predicate
	// evaluations, list merges), so a pathological rule set cannot
	// stall the install path.
	MaxWork int
}

// DefaultConfig returns the default compilation budget: compile at 8+
// rules, at most 1M table cells (4 MB of uint32 cells), 16M work units.
func DefaultConfig() Config {
	return Config{MinRules: 8, MaxCells: 1 << 20, MaxWork: 1 << 24}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.MinRules == 0 {
		c.MinRules = d.MinRules
	}
	if c.MaxCells == 0 {
		c.MaxCells = d.MaxCells
	}
	if c.MaxWork == 0 {
		c.MaxWork = d.MaxWork
	}
	return c
}

// Stats describes a compiled classifier's size, for resource accounting
// and observability.
type Stats struct {
	Dims   int // probed dimensions (wildcard-everywhere columns are skipped)
	Leaves int // distinct final match sets
	Cells  int // total lookup-table cells across dimension and cross tables
	Bytes  int // approximate resident size of the lookup structure
}

// budget is the running compile allowance.
type budget struct{ cells, work int }

func (b *budget) takeCells(n int) bool {
	b.cells -= n
	return b.cells >= 0
}

func (b *budget) takeWork(n int) bool {
	b.work -= n
	return b.work >= 0
}

type dimKind uint8

const (
	dimDense dimKind = iota
	dimInterval
)

// dim maps one column's input value to an equivalence-class ID. All
// fields are immutable after compile; classOf is lock-free and
// allocation-free.
type dim struct {
	kind dimKind
	col  int    // original column index
	mask uint64 // dense: index mask (size-1); interval: domain mask

	dense []uint32 // dense: masked value -> class

	// points: full-mask predicates of a column whose other masks are
	// narrower, value -> class; consulted ahead of the structure above.
	points map[uint64]uint32

	bounds []uint64 // interval: ascending segment lower bounds, bounds[0]==0
	cls    []uint32 // interval: segment -> class

	// classes holds, per class, the ascending (= match-ordered) rule
	// indices whose predicate in this column the class satisfies. Used
	// during the cross-product fold; cleared afterwards except on the
	// final level, whose lists become the leaves.
	classes [][]int32
}

// classOf returns the equivalence class of v in this dimension.
func (d *dim) classOf(v uint64) uint32 {
	if len(d.points) != 0 {
		if c, ok := d.points[v]; ok {
			return c
		}
	}
	if d.kind == dimDense {
		return d.dense[v&d.mask]
	}
	// Interval: greatest i with bounds[i] <= v&mask. bounds[0]==0, so
	// the search never falls off the left edge.
	v &= d.mask
	lo, hi := 0, len(d.bounds)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if d.bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return d.cls[lo]
}

// Compiled is the immutable compiled classifier. Lookup is lock-free
// and performs zero allocations; the returned slices are shared
// read-only state.
type Compiled struct {
	dims   []dim      // probe order (ascending class count)
	cross  [][]uint32 // cross[i] folds level-i class with dims[i+1] class
	stride []uint32   // cross[i] row stride = len(dims[i+1].classes)
	leaves [][]int32  // final class -> ascending rule indices (match order)
	stats  Stats
}

// Lookup classifies vals (one value per original column) and returns
// the ascending — i.e. match-ordered — indices of every matching rule.
// The slice is shared and must not be mutated. Zero allocations.
func (c *Compiled) Lookup(vals []uint64) []int32 {
	if len(c.dims) == 0 {
		return c.leaves[0]
	}
	d := &c.dims[0]
	cls := d.classOf(vals[d.col])
	for i := 1; i < len(c.dims); i++ {
		d = &c.dims[i]
		cls = c.cross[i-1][cls*c.stride[i-1]+d.classOf(vals[d.col])]
	}
	return c.leaves[cls]
}

// Stats returns the compiled structure's size.
func (c *Compiled) Stats() Stats { return c.stats }

// Compile builds the chained lookup structure for rules (given in match
// order: priority descending, ties already broken). It returns nil when
// the set is below MinRules, when a column's masks fit no dimension
// strategy (its full 64-bit masks aside, neither all-prefix nor 16-bit
// care), or when the budget is exceeded — in every case the caller's
// linear scan stays correct.
func Compile(cols int, rules []Rule, cfg Config) *Compiled {
	cfg = cfg.normalized()
	n := len(rules)
	if cols <= 0 || n == 0 || n < cfg.MinRules || n > 1<<30 {
		return nil
	}
	for i := range rules {
		if len(rules[i].Values) != cols || len(rules[i].Masks) != cols {
			return nil
		}
	}
	bud := &budget{cells: cfg.MaxCells, work: cfg.MaxWork}

	var dims []dim
	for col := 0; col < cols; col++ {
		preds := buildPreds(rules, col)
		var care uint64
		for i := range preds {
			care |= preds[i].mask
		}
		if care == 0 {
			// Every rule wildcards this column: it constrains nothing.
			continue
		}
		d, ok := buildDim(col, preds, bud)
		if !ok {
			return nil
		}
		dims = append(dims, d)
	}
	c := &Compiled{}
	if len(dims) == 0 {
		// Every column wildcarded: one leaf matching all rules.
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		c.leaves = [][]int32{all}
		c.stats = Stats{Leaves: 1, Bytes: 4 * n}
		return c
	}

	// Fold narrow dimensions first: intermediate class counts (and so
	// cross-table sizes) stay minimal.
	sort.SliceStable(dims, func(i, j int) bool {
		return len(dims[i].classes) < len(dims[j].classes)
	})
	c.dims = dims

	cur := dims[0].classes
	for i := 1; i < len(dims); i++ {
		d := &dims[i]
		aC, bC := len(cur), len(d.classes)
		if !bud.takeCells(aC * bC) {
			return nil
		}
		tbl := make([]uint32, aC*bC)
		cs := newClassSet()
		for ai := 0; ai < aC; ai++ {
			a := cur[ai]
			row := tbl[ai*bC:]
			for bi := 0; bi < bC; bi++ {
				b := d.classes[bi]
				w := len(a)
				if len(b) < w {
					w = len(b)
				}
				if !bud.takeWork(w + 1) {
					return nil
				}
				row[bi] = cs.id(intersect(a, b))
			}
		}
		c.cross = append(c.cross, tbl)
		c.stride = append(c.stride, uint32(bC))
		cur = cs.lists
	}
	c.leaves = cur

	st := Stats{Dims: len(dims), Leaves: len(c.leaves)}
	for i := range dims {
		st.Cells += len(dims[i].dense) + len(dims[i].cls) + len(dims[i].points)
		st.Bytes += 4*len(dims[i].dense) + 12*len(dims[i].cls) + 12*len(dims[i].points)
	}
	for _, t := range c.cross {
		st.Cells += len(t)
		st.Bytes += 4 * len(t)
	}
	for _, l := range c.leaves {
		st.Bytes += 4 * len(l)
	}
	c.stats = st

	// The per-dimension class lists were only needed for the fold; the
	// final level's lists live on as c.leaves.
	for i := range dims {
		dims[i].classes = nil
	}
	return c
}

// pred is one distinct (value&mask, mask) column predicate and the
// ascending rule indices that carry it. Each rule contributes exactly
// one predicate per column, so predicate rule lists are disjoint.
type pred struct {
	val, mask uint64
	rules     []int32
}

func buildPreds(rules []Rule, col int) []pred {
	idx := make(map[[2]uint64]int)
	var preds []pred
	for i := range rules {
		m := rules[i].Masks[col]
		v := rules[i].Values[col] & m
		k := [2]uint64{v, m}
		j, ok := idx[k]
		if !ok {
			j = len(preds)
			idx[k] = j
			preds = append(preds, pred{val: v, mask: m})
		}
		preds[j].rules = append(preds[j].rules, int32(i))
	}
	return preds
}

// buildDim picks the column strategy: sorted intervals when every mask
// is a width-W prefix (exact masks of that width included — they are
// point intervals), a dense value table when the care bits fit 16 bits,
// otherwise uncompilable. A full 64-bit mask beside narrower ones (what
// a rule installed without masks carries) fits neither domain: those
// predicates are set aside, the rest pick the strategy, and addPoints
// lays them over it by value.
func buildDim(col int, preds []pred, bud *budget) (dim, bool) {
	const full = ^uint64(0)
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
		points = make([]pred, 0, nfull)
		narrow := make([]pred, 0, len(preds)-nfull)
		for i := range preds {
			if preds[i].mask == full {
				points = append(points, preds[i])
			} else {
				narrow = append(narrow, preds[i])
			}
		}
		preds = narrow
	}
	allPrefix := true
	for i := range preds {
		if m := preds[i].mask; m != 0 && !isPrefixAt(m, w) {
			allPrefix = false
			break
		}
	}
	var d dim
	ok := false
	switch {
	case allPrefix:
		d, ok = buildInterval(col, preds, w, bud)
	case care <= 0xFFFF:
		d, ok = buildDense(col, preds, care, bud)
	}
	if !ok || !d.addPoints(points, bud) {
		return dim{}, false
	}
	return d, true
}

// addPoints gives each full-mask predicate its own class: the rules the
// narrower structure matches at that value plus the predicate's own. A
// rule carries one predicate a column, so no two such classes are equal
// and none equals a class of the structure below.
func (d *dim) addPoints(points []pred, bud *budget) bool {
	if len(points) == 0 {
		return true
	}
	if !bud.takeCells(len(points)) {
		return false
	}
	d.points = make(map[uint64]uint32, len(points))
	for _, p := range points {
		under := d.classes[d.classOf(p.val)]
		if !bud.takeWork(len(under) + len(p.rules) + 1) {
			return false
		}
		l := make([]int32, 0, len(under)+len(p.rules))
		l = append(append(l, under...), p.rules...)
		sortInt32(l)
		d.points[p.val] = uint32(len(d.classes))
		d.classes = append(d.classes, l)
	}
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
func buildInterval(col int, preds []pred, w int, bud *budget) (dim, bool) {
	domain := ^uint64(0)
	if w < 64 {
		domain = 1<<uint(w) - 1
	}
	type span struct {
		lo, hi uint64
		p      int32
	}
	spans := make([]span, len(preds))
	bset := map[uint64]struct{}{0: {}}
	for i := range preds {
		lo := preds[i].val & preds[i].mask
		hi := lo | (domain &^ preds[i].mask)
		spans[i] = span{lo, hi, int32(i)}
		bset[lo] = struct{}{}
		if hi < domain {
			bset[hi+1] = struct{}{}
		}
	}
	bounds := make([]uint64, 0, len(bset))
	for b := range bset {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	if !bud.takeCells(len(bounds)) {
		return dim{}, false
	}

	byStart := make([]span, len(spans))
	copy(byStart, spans)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].lo < byStart[j].lo })
	byEnd := spans
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].hi < byEnd[j].hi })

	cs := newClassSet()
	cls := make([]uint32, len(bounds))
	active := make([]int32, 0, 64) // live predicate ids, lazily compacted
	dead := make([]bool, len(preds))
	deadCount := 0
	si, ei := 0, 0
	for i, b := range bounds {
		for ei < len(byEnd) && byEnd[ei].hi < b {
			dead[byEnd[ei].p] = true
			deadCount++
			ei++
		}
		for si < len(byStart) && byStart[si].lo <= b {
			active = append(active, byStart[si].p)
			si++
		}
		if deadCount*2 > len(active) {
			live := active[:0]
			for _, p := range active {
				if !dead[p] {
					live = append(live, p)
				}
			}
			active = live
			deadCount = 0
		}
		total := 0
		for _, p := range active {
			if !dead[p] {
				total += len(preds[p].rules)
			}
		}
		if !bud.takeWork(total + len(active) + 1) {
			return dim{}, false
		}
		l := make([]int32, 0, total)
		for _, p := range active {
			if !dead[p] {
				l = append(l, preds[p].rules...)
			}
		}
		sortInt32(l)
		cls[i] = cs.id(l)
	}
	return dim{
		kind: dimInterval, col: col, mask: domain,
		bounds: bounds, cls: cls, classes: cs.lists,
	}, true
}

// buildDense compiles a small-care column into a dense value table
// sized to the next power of two covering the care mask: every input
// value reduces to its masked low bits, and each table slot names the
// class of that value's match set.
func buildDense(col int, preds []pred, care uint64, bud *budget) (dim, bool) {
	size := 1 << uint(bits.Len64(care)) // care <= 0xFFFF, so size <= 65536
	if !bud.takeCells(size) || !bud.takeWork(size*(len(preds)+1)) {
		return dim{}, false
	}
	dense := make([]uint32, size)
	cs := newClassSet()
	matched := make([]int32, 0, len(preds))
	for v := 0; v < size; v++ {
		matched = matched[:0]
		total := 0
		for pi := range preds {
			if uint64(v)&preds[pi].mask == preds[pi].val {
				matched = append(matched, int32(pi))
				total += len(preds[pi].rules)
			}
		}
		l := make([]int32, 0, total)
		for _, pi := range matched {
			l = append(l, preds[pi].rules...)
		}
		sortInt32(l)
		dense[v] = cs.id(l)
	}
	return dim{
		kind: dimDense, col: col, mask: uint64(size - 1),
		dense: dense, classes: cs.lists,
	}, true
}

// classSet dedupes rule-index lists into class IDs.
type classSet struct {
	hash  map[uint64][]uint32
	lists [][]int32
}

func newClassSet() *classSet {
	return &classSet{hash: make(map[uint64][]uint32)}
}

// id returns the class of l, registering it if new. l must be sorted.
func (cs *classSet) id(l []int32) uint32 {
	h := hashList(l)
	for _, id := range cs.hash[h] {
		if equalList(cs.lists[id], l) {
			return id
		}
	}
	id := uint32(len(cs.lists))
	cs.lists = append(cs.lists, l)
	cs.hash[h] = append(cs.hash[h], id)
	return id
}

func hashList(l []int32) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, v := range l {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}

func equalList(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intersect returns the intersection of two ascending lists, ascending.
// When one side is much shorter it gallops with binary search instead
// of merging — the common case of a point class against a wildcard
// class holding every rule.
func intersect(a, b []int32) []int32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	var out []int32
	if len(b) >= 16*len(a) {
		for _, v := range a {
			lo, hi := 0, len(b)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(b) && b[lo] == v {
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

func sortInt32(l []int32) {
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
}
