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
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/newton-net/newton/internal/classify"
)

// MatchKind distinguishes the matching disciplines a table supports. LPM
// reduces to ternary matching internally (prefix mask with prefix-length
// priority), mirroring how RMT unifies them over TCAM; an exact match is
// a ternary rule under full masks.
type MatchKind int

const (
	// MatchTernary matches value/mask pairs with explicit priorities.
	MatchTernary MatchKind = iota
	// MatchLPM is longest-prefix match on the first column.
	MatchLPM
)

// String names the match kind as P4 would.
func (k MatchKind) String() string {
	switch k {
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

// tableSnap is one immutable rule-set snapshot: the rules in match order
// (priority desc, then insertion order) and their compiled classifier.
// Readers load it via an atomic pointer and never take a lock; writers
// build and compile a fresh snapshot under the table mutex and publish
// it atomically (copy-on-write).
type tableSnap struct {
	rules []*Rule
	cls   *classify.Compiled
}

// Table is a match-action table with runtime-updatable rules — the
// reconfigurable component Newton leans on (§2.1: "match-action table
// rules belong to [runtime reconfigurability]").
//
// Every rule set a table publishes is compiled (internal/classify): a
// lookup is a fixed sequence of table probes whatever the rule count,
// and a write whose rule set does not compile is refused, as a TCAM
// refuses an entry it has no room for.
//
// Concurrency: the per-packet read path (Lookup, LookupAll, Entries,
// Rules) is lock-free — it reads an immutable copy-on-write snapshot
// through an atomic pointer, so lookups never block rule updates and
// vice versa. Writes serialize on an internal mutex, build and compile
// a fresh snapshot, and publish it atomically. A reader that raced a
// writer sees either the old or the new rule set, never a torn one.
type Table struct {
	Name       string
	Kind       MatchKind
	Cols       int // number of match columns
	MaxEntries int

	mu      sync.Mutex // serializes writers; guards what follows
	snap    atomic.Pointer[tableSnap]
	version atomic.Uint64 // bumped on every rule-set change
	nextID  int

	// Compile storage reused from write to write.
	compiler classify.Compiler
	specs    []classify.Rule
	adds     []*Rule
}

// NewTable builds an empty table.
func NewTable(name string, kind MatchKind, cols, maxEntries int) *Table {
	if cols <= 0 {
		panic("dataplane: table needs at least one match column")
	}
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	t := &Table{Name: name, Kind: kind, Cols: cols, MaxEntries: maxEntries}
	t.Clear()
	return t
}

// Version returns a counter that changes whenever the rule set changes.
// Caches keyed on lookup results (the module engine's flow table)
// compare versions to detect staleness.
func (t *Table) Version() uint64 { return t.version.Load() }

// AddRule installs a rule at runtime and returns its ID: a Write of one
// rule, with values and masks copied. For LPM the mask of the first
// column determines priority (longer prefix wins); non-contiguous LPM
// masks are rejected.
func (t *Table) AddRule(values, masks []uint64, priority int, action Action) (int, error) {
	r := &Rule{Priority: priority, Values: slices.Clone(values), Masks: slices.Clone(masks), Action: action}
	if err := t.Write(nil, []*Rule{r}); err != nil {
		return 0, err
	}
	return r.ID, nil
}

// RemoveRule deletes a rule by ID at runtime: a Write of one removal.
func (t *Table) RemoveRule(id int) error {
	return t.Write([]int{id}, nil)
}

// Write is the table's one write path: it removes the rules whose IDs
// are in remove, adds the rules in add, compiles the resulting rule set
// and publishes it as one snapshot. An added rule lands after every
// rule of its priority, in add's order; Write gives it its ID (and, in
// an LPM table, its priority), and the table owns it from then on. A
// write that names a rule the table does not hold, carries a malformed
// rule, overfills the table, or leaves a rule set that does not compile
// (the error wraps classify.ErrMaskShape or classify.ErrBudget) is
// refused, and the table's rules and Version stay as they were.
func (t *Table) Write(remove []int, add []*Rule) error {
	for _, r := range add {
		if len(r.Values) != t.Cols {
			return fmt.Errorf("dataplane: table %s wants %d columns, got %d", t.Name, t.Cols, len(r.Values))
		}
		if len(r.Masks) != t.Cols {
			return fmt.Errorf("dataplane: table %s mask arity mismatch", t.Name)
		}
		if t.Kind == MatchLPM {
			plen, err := prefixLen(r.Masks[0])
			if err != nil {
				return fmt.Errorf("dataplane: lpm table %s: %w", t.Name, err)
			}
			r.Priority = plen
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.snap.Load().rules
	// Merge the adds, stably sorted by priority, into the kept rules.
	t.adds = append(t.adds[:0], add...)
	slices.SortStableFunc(t.adds, func(a, b *Rule) int { return cmp.Compare(b.Priority, a.Priority) })
	rules := make([]*Rule, 0, len(old)+len(add))
	j := 0
	for _, r := range old {
		if slices.Contains(remove, r.ID) {
			continue
		}
		for ; j < len(t.adds) && t.adds[j].Priority > r.Priority; j++ {
			rules = append(rules, t.adds[j])
		}
		rules = append(rules, r)
	}
	rules = append(rules, t.adds[j:]...)
	clear(t.adds)
	if gone := len(old) + len(add) - len(rules); gone != len(remove) {
		for _, id := range remove {
			if !slices.ContainsFunc(old, func(r *Rule) bool { return r.ID == id }) {
				return fmt.Errorf("dataplane: table %s has no rule %d", t.Name, id)
			}
		}
		return fmt.Errorf("dataplane: table %s: rule IDs %v repeat", t.Name, remove)
	}
	if len(rules) > t.MaxEntries {
		return fmt.Errorf("dataplane: table %s full (%d entries)", t.Name, t.MaxEntries)
	}
	if err := t.publish(rules); err != nil {
		return err
	}
	for _, r := range add {
		t.nextID++
		r.ID = t.nextID
	}
	return nil
}

// publish compiles rules (in match order) and, if they compile, makes
// them the table's snapshot. Callers hold t.mu.
func (t *Table) publish(rules []*Rule) error {
	t.specs = t.specs[:0]
	for _, r := range rules {
		t.specs = append(t.specs, classify.Rule{Values: r.Values, Masks: r.Masks})
	}
	cls, err := t.compiler.Compile(t.Cols, t.specs, classify.DefaultConfig())
	clear(t.specs)
	if err != nil {
		return fmt.Errorf("dataplane: table %s: %w", t.Name, err)
	}
	t.snap.Store(&tableSnap{rules: rules, cls: cls})
	t.version.Add(1)
	return nil
}

// Lookup returns the highest-priority matching rule, or nil. Lock-free:
// it reads the current snapshot and resolves it through the compiled
// classifier — O(columns) regardless of rule count.
func (t *Table) Lookup(vals ...uint64) *Rule {
	if len(vals) != t.Cols {
		panic(fmt.Sprintf("dataplane: table %s lookup with %d values, want %d", t.Name, len(vals), t.Cols))
	}
	s := t.snap.Load()
	if leaf := s.cls.Lookup(vals); len(leaf) > 0 {
		return s.rules[leaf[0]]
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
	// The classifier's leaf is the full match set as ascending indices
	// — already match order — so it costs zero per-rule work.
	s := t.snap.Load()
	for _, idx := range s.cls.Lookup(vals) {
		dst = append(dst, s.rules[idx])
	}
	return dst
}

// Entries returns the current rule count.
func (t *Table) Entries() int {
	return len(t.snap.Load().rules)
}

// Clear removes all rules in one snapshot.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.publish(nil) // no rules always compile
}

// Rules returns the current snapshot of the rules in match order. The
// returned slice is immutable shared state: it stays coherent while
// concurrent writes proceed, but does not reflect them.
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
