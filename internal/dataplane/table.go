// Package dataplane simulates a PISA-style programmable switch pipeline:
// match-action tables with runtime rule updates, register arrays with
// stateful ALUs, physical stages with per-resource-type capacity
// accounting (crossbar, SRAM, TCAM, VLIW, hash bits, stateful ALUs,
// gateways), an L3 forwarding table, and mirroring. It is the substrate
// Newton's reconfigurable modules are built on; it stands in for the
// Tofino ASIC of the paper's testbed.
//
// The simulator is deliberately behavioural, not timing-accurate: every
// evaluation quantity in the paper (rule counts, stage counts, message
// counts, register sizes, forwarding interruption) is a count or a
// discipline, not a silicon latency.
package dataplane

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/newton-net/newton/internal/classify"
)

// MatchKind distinguishes the matching disciplines a table supports. All
// kinds reduce to ternary matching internally (exact = full mask, LPM =
// prefix mask with prefix-length priority), mirroring how RMT unifies
// them over TCAM/SRAM.
type MatchKind int

const (
	// MatchExact matches all columns under full masks.
	MatchExact MatchKind = iota
	// MatchTernary matches value/mask pairs with explicit priorities.
	MatchTernary
	// MatchLPM is longest-prefix match on the first column.
	MatchLPM
)

// String names the match kind as P4 would.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	}
	return fmt.Sprintf("matchkind(%d)", int(k))
}

// Action is what a matching rule executes. Concrete actions are defined
// by whoever programs the table (the modules package for Newton tables,
// the switch itself for forwarding).
type Action interface {
	// ActionName identifies the action for rule dumps and tests.
	ActionName() string
}

// Rule is one table entry: per-column value/mask pairs, a priority, and
// an action. Higher priority wins; insertion order breaks ties (as if
// earlier rules sat higher in TCAM). A Rule is immutable once installed;
// snapshots share rule pointers freely.
type Rule struct {
	ID       int
	Priority int
	Values   []uint64
	Masks    []uint64
	Action   Action
}

// Matches reports whether the rule matches the given column values.
func (r *Rule) Matches(vals []uint64) bool {
	for i := range r.Values {
		if vals[i]&r.Masks[i] != r.Values[i]&r.Masks[i] {
			return false
		}
	}
	return true
}

// Classifier compile states, kept in tableSnap.clsState.
const (
	clsUncompiled = iota // no classified lookup has run on this snapshot yet
	clsCompiled          // compiled classifier serving lookups
	clsFallback          // compile declined (too few rules, strategy, or budget): linear scan
)

// tableSnap is one immutable rule-set snapshot. Readers load it via an
// atomic pointer and never take a lock; writers build a fresh snapshot
// under the table mutex and publish it atomically (copy-on-write).
type tableSnap struct {
	// rules holds every rule in match order (priority desc, then
	// insertion order).
	rules []*Rule

	// The compiled classifier for rules. Compilation is deferred to the
	// first classified lookup — rules install one at a time, and
	// compiling on every publish would make an n-rule install quadratic
	// — and runs at most once per snapshot (sync.Once), so the packet
	// path after it is two atomic loads. clsState is stored after cls
	// (both atomic), so state != clsUncompiled acquires the compiled
	// pointer.
	cols     int
	clsCfg   classify.Config
	clsOnce  sync.Once
	cls      atomic.Pointer[classify.Compiled]
	clsState atomic.Int32
}

var emptySnap = &tableSnap{}

// classifier returns the snapshot's compiled classifier, compiling on
// first call; nil means fallback to the linear scan. The hot path costs
// two atomic loads; the cold path is kept out of line so its closure
// never allocates on classified lookups.
func (s *tableSnap) classifier() *classify.Compiled {
	if s.clsState.Load() == clsUncompiled {
		s.compileClassifier()
	}
	return s.cls.Load()
}

//go:noinline
func (s *tableSnap) compileClassifier() {
	s.clsOnce.Do(func() {
		specs := make([]classify.Rule, len(s.rules))
		for i, r := range s.rules {
			specs[i] = classify.Rule{Values: r.Values, Masks: r.Masks}
		}
		c := classify.Compile(s.cols, specs, s.clsCfg)
		state := int32(clsFallback)
		if c != nil {
			s.cls.Store(c)
			state = clsCompiled
		}
		s.clsState.Store(state)
	})
}

// Table is a match-action table with runtime-updatable rules — the
// reconfigurable component Newton leans on (§2.1: "match-action table
// rules belong to [runtime reconfigurability]").
//
// Concurrency: the per-packet read path (Lookup, LookupAll, Entries,
// Rules) is lock-free — it reads an immutable copy-on-write snapshot
// through an atomic pointer, so lookups never block rule updates and
// vice versa. Writers (AddRule, RemoveRule, Clear) serialize on an
// internal mutex, build a fresh snapshot, and publish it atomically.
// A reader that raced a writer sees either the old or the new rule set,
// never a torn one.
type Table struct {
	Name       string
	Kind       MatchKind
	Cols       int // number of match columns
	MaxEntries int

	mu      sync.Mutex // serializes writers
	snap    atomic.Pointer[tableSnap]
	version atomic.Uint64 // bumped on every rule-set change
	byID    map[int]*Rule
	nextID  int

	// clsCfg is the classifier compile budget snapshots are built with
	// (zero value = classify defaults). Written under mu.
	clsCfg classify.Config
	// ternaryScans counts lookups served by the linear ternary scan —
	// the slow path the compiled classifier exists to remove.
	ternaryScans atomic.Uint64

	// Default is executed when no rule matches (may be nil).
	Default Action
}

// NewTable builds an empty table.
func NewTable(name string, kind MatchKind, cols, maxEntries int) *Table {
	if cols <= 0 {
		panic("dataplane: table needs at least one match column")
	}
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	t := &Table{
		Name: name, Kind: kind, Cols: cols, MaxEntries: maxEntries,
		byID: make(map[int]*Rule),
	}
	t.snap.Store(emptySnap)
	return t
}

// Version returns a counter that changes whenever the rule set changes.
// Caches keyed on lookup results (the module engine's flow table)
// compare versions to detect staleness.
func (t *Table) Version() uint64 { return t.version.Load() }

// AddRule installs a rule at runtime and returns its ID. Exact-match
// rules may omit masks (full masks are implied). For LPM the mask of the
// first column determines priority (longer prefix wins); non-contiguous
// LPM masks are rejected.
func (t *Table) AddRule(values, masks []uint64, priority int, action Action) (int, error) {
	if len(values) != t.Cols {
		return 0, fmt.Errorf("dataplane: table %s wants %d columns, got %d", t.Name, t.Cols, len(values))
	}
	if masks == nil {
		masks = make([]uint64, t.Cols)
		for i := range masks {
			masks[i] = ^uint64(0)
		}
	}
	if len(masks) != t.Cols {
		return 0, fmt.Errorf("dataplane: table %s mask arity mismatch", t.Name)
	}
	if t.Kind == MatchExact {
		for i, m := range masks {
			if m != ^uint64(0) {
				return 0, fmt.Errorf("dataplane: exact table %s got partial mask on column %d", t.Name, i)
			}
		}
	}
	if t.Kind == MatchLPM {
		plen, err := prefixLen(masks[0])
		if err != nil {
			return 0, fmt.Errorf("dataplane: lpm table %s: %w", t.Name, err)
		}
		priority = plen
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load()
	if len(old.rules) >= t.MaxEntries {
		return 0, fmt.Errorf("dataplane: table %s full (%d entries)", t.Name, t.MaxEntries)
	}
	t.nextID++
	r := &Rule{
		ID: t.nextID, Priority: priority,
		Values: append([]uint64(nil), values...),
		Masks:  append([]uint64(nil), masks...),
		Action: action,
	}
	// Binary-search insertion: the list is already in match order, so a
	// single copy-with-insert replaces the old whole-slice re-sort. The
	// new rule is the latest, so it lands after every rule of equal
	// priority.
	pos := sort.Search(len(old.rules), func(i int) bool {
		return old.rules[i].Priority < r.Priority
	})
	rules := make([]*Rule, 0, len(old.rules)+1)
	rules = append(rules, old.rules[:pos]...)
	rules = append(rules, r)
	rules = append(rules, old.rules[pos:]...)
	t.byID[r.ID] = r
	t.publish(rules)
	return r.ID, nil
}

// RemoveRule deletes a rule by ID at runtime.
func (t *Table) RemoveRule(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("dataplane: table %s has no rule %d", t.Name, id)
	}
	delete(t.byID, id)
	old := t.snap.Load()
	rules := make([]*Rule, 0, len(old.rules)-1)
	for _, r := range old.rules {
		if r.ID != id {
			rules = append(rules, r)
		}
	}
	t.publish(rules)
	return nil
}

// publish atomically installs the snapshot for rules (already in match
// order). Callers hold t.mu.
func (t *Table) publish(rules []*Rule) {
	t.snap.Store(&tableSnap{rules: rules, cols: t.Cols, clsCfg: t.clsCfg})
	t.version.Add(1)
}

// SetClassifierConfig replaces the compiled-classifier budget and
// republishes the current rules under it. A huge MinRules forces the
// linear-scan fallback — how tests and benchmarks pin the oracle path.
func (t *Table) SetClassifierConfig(cfg classify.Config) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clsCfg = cfg
	t.publish(t.snap.Load().rules)
}

// TernaryScans returns how many lookups fell through to the linear
// ternary scan — zero in steady state once the classifier compiles.
func (t *Table) TernaryScans() uint64 { return t.ternaryScans.Load() }

// ClassifierInfo describes the current snapshot's classifier state for
// observability and tests.
type ClassifierInfo struct {
	// Attempted is false until a classified lookup first compiles.
	Attempted bool
	// Compiled reports whether lookups are served by compiled tables
	// (false after a strategy/budget fallback or below MinRules).
	Compiled bool
	Stats    classify.Stats
}

// ClassifierInfo reports the live snapshot's classifier state without
// forcing compilation.
func (t *Table) ClassifierInfo() ClassifierInfo {
	s := t.snap.Load()
	switch s.clsState.Load() {
	case clsCompiled:
		return ClassifierInfo{Attempted: true, Compiled: true, Stats: s.cls.Load().Stats()}
	case clsFallback:
		return ClassifierInfo{Attempted: true}
	}
	return ClassifierInfo{}
}

// Lookup returns the highest-priority matching rule, or nil. Lock-free:
// it reads the current snapshot and resolves it through the compiled
// classifier — O(columns) regardless of rule count — falling back to
// the linear scan only when compilation declined (see classify.Config).
func (t *Table) Lookup(vals ...uint64) *Rule {
	if len(vals) != t.Cols {
		panic(fmt.Sprintf("dataplane: table %s lookup with %d values, want %d", t.Name, len(vals), t.Cols))
	}
	s := t.snap.Load()
	if len(s.rules) == 0 {
		return nil
	}
	if c := s.classifier(); c != nil {
		if leaf := c.Lookup(vals); len(leaf) > 0 {
			return s.rules[leaf[0]]
		}
		return nil
	}
	t.ternaryScans.Add(1)
	for _, r := range s.rules {
		if r.Matches(vals) {
			return r
		}
	}
	return nil
}

// LookupAll returns every matching rule in priority order. Newton's
// newton_init uses it to dispatch one packet to every query chain that
// monitors its traffic class ("Newton chains the queries monitoring the
// same traffic", §4.1). The result is freshly allocated; use
// LookupAllAppend on the per-packet path.
func (t *Table) LookupAll(vals ...uint64) []*Rule {
	if len(vals) != t.Cols {
		panic(fmt.Sprintf("dataplane: table %s lookup with %d values, want %d", t.Name, len(vals), t.Cols))
	}
	return t.LookupAllAppend(nil, vals)
}

// LookupAllAppend appends every matching rule in priority order to dst
// and returns the extended slice. It performs no allocation beyond what
// dst needs to grow, so a caller-owned buffer makes repeated lookups
// allocation-free.
func (t *Table) LookupAllAppend(dst []*Rule, vals []uint64) []*Rule {
	if len(vals) != t.Cols {
		panic(fmt.Sprintf("dataplane: table %s lookup with %d values, want %d", t.Name, len(vals), t.Cols))
	}
	s := t.snap.Load()
	if len(s.rules) == 0 {
		return dst
	}
	// The compiled classifier's leaf is the full match set as ascending
	// indices — already match order — so it costs zero per-rule work;
	// only the scan fallback evaluates rules.
	if c := s.classifier(); c != nil {
		for _, idx := range c.Lookup(vals) {
			dst = append(dst, s.rules[idx])
		}
		return dst
	}
	t.ternaryScans.Add(1)
	for _, r := range s.rules {
		if r.Matches(vals) {
			dst = append(dst, r)
		}
	}
	return dst
}

// Entries returns the current rule count.
func (t *Table) Entries() int {
	return len(t.snap.Load().rules)
}

// Clear removes all rules (used by the Sonata reboot model).
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID = make(map[int]*Rule)
	t.snap.Store(emptySnap)
	t.version.Add(1)
}

// Rules returns the current snapshot of the rules in match order. The
// returned slice is immutable shared state: it stays coherent while
// concurrent AddRule/RemoveRule/Clear calls proceed, but does not
// reflect them.
func (t *Table) Rules() []*Rule {
	return t.snap.Load().rules
}

// prefixLen returns the prefix length of an LPM mask. The mask's set
// bits must be contiguous (a prefix possibly shifted within the 64-bit
// storage of a narrower field); anything else would silently mis-rank
// the rule, so it is rejected.
func prefixLen(mask uint64) (int, error) {
	if mask != 0 {
		run := mask >> bits.TrailingZeros64(mask)
		if run&(run+1) != 0 {
			return 0, fmt.Errorf("non-contiguous LPM mask %#x", mask)
		}
	}
	return bits.OnesCount64(mask), nil
}
