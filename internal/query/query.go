// Package query defines Newton's intent language: Spark-style stream
// processing queries over packets, composed of the four primitives the
// paper supports on data planes — filter, map, distinct, and reduce —
// plus multi-branch queries whose per-branch results merge in the result
// process module (the worked example of Fig. 6).
package query

import (
	"fmt"
	"slices"
	"time"

	"github.com/newton-net/newton/internal/fields"
)

// PrimKind is the primitive's operator.
type PrimKind int

const (
	// KindFilter keeps only packets satisfying all predicates.
	KindFilter PrimKind = iota
	// KindMap projects the packet onto a set of operation keys.
	KindMap
	// KindDistinct passes only the first packet per distinct key per
	// window (Bloom-filter semantics on the data plane).
	KindDistinct
	// KindReduce folds a value per key per window (Count-Min semantics
	// on the data plane); the running result becomes the fold's value.
	KindReduce
	numPrimKinds
)

var primNames = [numPrimKinds]string{"filter", "map", "distinct", "reduce"}

// String names the primitive.
func (k PrimKind) String() string {
	if k >= 0 && k < numPrimKinds {
		return primNames[k]
	}
	return fmt.Sprintf("prim(%d)", int(k))
}

// Result is the pseudo-field predicates use to reference the running
// query result (the count produced by the last reduce/distinct) instead
// of a packet header field.
const Result fields.ID = 0xFE

// CmpOp is a predicate comparison.
type CmpOp int

// Predicate comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpGt
	CmpGe
	CmpLt
	CmpLe
	// CmpMaskEq matches (field & Mask) == Value, the ternary form.
	CmpMaskEq
)

var cmpNames = []string{"==", "!=", ">", ">=", "<", "<=", "&=="}

// String renders the operator.
func (op CmpOp) String() string {
	if int(op) < len(cmpNames) {
		return cmpNames[op]
	}
	return fmt.Sprintf("cmp(%d)", int(op))
}

// Predicate is one comparison in a filter.
type Predicate struct {
	Field fields.ID
	Op    CmpOp
	Value uint64
	Mask  uint64 // used by CmpMaskEq only
}

// Eval evaluates the predicate against a field value.
func (p Predicate) Eval(v uint64) bool {
	switch p.Op {
	case CmpEq:
		return v == p.Value
	case CmpNe:
		return v != p.Value
	case CmpGt:
		return v > p.Value
	case CmpGe:
		return v >= p.Value
	case CmpLt:
		return v < p.Value
	case CmpLe:
		return v <= p.Value
	case CmpMaskEq:
		return v&p.Mask == p.Value&p.Mask
	}
	return false
}

// OnResult reports whether the predicate references the running result
// rather than a packet field.
func (p Predicate) OnResult() bool { return p.Field == Result }

// String renders the predicate as query source would.
func (p Predicate) String() string {
	name := "result"
	if !p.OnResult() {
		name = p.Field.String()
	}
	if p.Op == CmpMaskEq {
		return fmt.Sprintf("%s&%#x==%#x", name, p.Mask, p.Value)
	}
	return fmt.Sprintf("%s%s%d", name, p.Op, p.Value)
}

// Convenience predicate constructors.

// Eq builds field == v.
func Eq(f fields.ID, v uint64) Predicate { return Predicate{Field: f, Op: CmpEq, Value: v} }

// Gt builds field > v.
func Gt(f fields.ID, v uint64) Predicate { return Predicate{Field: f, Op: CmpGt, Value: v} }

// Lt builds field < v.
func Lt(f fields.ID, v uint64) Predicate { return Predicate{Field: f, Op: CmpLt, Value: v} }

// MaskEq builds (field & mask) == v.
func MaskEq(f fields.ID, mask, v uint64) Predicate {
	return Predicate{Field: f, Op: CmpMaskEq, Mask: mask, Value: v}
}

// ValueOne is the sentinel reduce value meaning "count packets" (the
// constant 1 of Sonata's map(pkt => (key, 1))).
const ValueOne fields.ID = 0xFD

// Primitive is one step of a branch.
type Primitive struct {
	Kind PrimKind

	// Preds holds filter predicates (ANDed). Filter only.
	Preds []Predicate

	// Keys is the operation-key selection. Map/Distinct/Reduce.
	Keys fields.Mask

	// Value is what reduce folds: ValueOne to count packets, or a field
	// (e.g. PktLen to sum bytes). Reduce only.
	Value fields.ID
}

// String renders the primitive as query source would.
func (pr Primitive) String() string {
	switch pr.Kind {
	case KindFilter:
		s := ""
		for i, p := range pr.Preds {
			if i > 0 {
				s += " && "
			}
			s += p.String()
		}
		return "filter(" + s + ")"
	case KindMap:
		return "map" + pr.Keys.String()
	case KindDistinct:
		return "distinct" + pr.Keys.String()
	case KindReduce:
		v := "1"
		if pr.Value != ValueOne {
			v = pr.Value.String()
		}
		return fmt.Sprintf("reduce(keys=%s, f=sum(%s))", pr.Keys, v)
	}
	return "?"
}

// IsFrontFilter reports whether the primitive is a filter over only the
// 5-tuple and TCP flags — the class Opt.1 folds into newton_init.
func (pr Primitive) IsFrontFilter() bool {
	if pr.Kind != KindFilter {
		return false
	}
	for _, p := range pr.Preds {
		if p.OnResult() {
			return false
		}
		switch p.Field {
		case fields.SrcIP, fields.DstIP, fields.Proto, fields.SrcPort, fields.DstPort, fields.TCPFlags:
		default:
			return false
		}
		// newton_init is a ternary classifier: it can express equality
		// and masked equality, not ranges.
		if p.Op != CmpEq && p.Op != CmpMaskEq {
			return false
		}
	}
	return true
}

// Branch is one primitive chain. Multi-branch queries (Fig. 6) run
// several branches over (usually disjoint) traffic classes and merge
// their per-key results.
type Branch struct {
	Prims []Primitive
}

// StatefulKeys returns the key mask of the branch's last stateful
// primitive (what its per-key state is indexed by), or a zero mask.
func (b *Branch) StatefulKeys() fields.Mask {
	for i := len(b.Prims) - 1; i >= 0; i-- {
		if b.Prims[i].Kind == KindReduce || b.Prims[i].Kind == KindDistinct {
			return b.Prims[i].Keys
		}
	}
	return fields.Mask{}
}

// MergeOp combines branch results.
type MergeOp int

const (
	// MergeLinear computes Σ Coeffs[i]·result[i].
	MergeLinear MergeOp = iota
	// MergeMin computes min over branch results.
	MergeMin
)

// Merge specifies how a multi-branch query combines per-key branch
// results into the global result, and when that triggers a report.
type Merge struct {
	Op     MergeOp
	Coeffs []int64 // MergeLinear only; one per branch
	Cmp    CmpOp   // CmpGt or CmpLt against Threshold
	// Threshold triggers the report.
	Threshold int64
}

// Apply combines branch results (already aligned on a common key).
func (m *Merge) Apply(results []uint64) int64 {
	switch m.Op {
	case MergeMin:
		min := int64(1)<<62 - 1
		for _, r := range results {
			if int64(r) < min {
				min = int64(r)
			}
		}
		return min
	default:
		var g int64
		for i, r := range results {
			c := int64(1)
			if i < len(m.Coeffs) {
				c = m.Coeffs[i]
			}
			g += c * int64(r)
		}
		return g
	}
}

// Triggered reports whether the merged value crosses the threshold.
func (m *Merge) Triggered(g int64) bool {
	if m.Cmp == CmpLt {
		return g < m.Threshold
	}
	return g > m.Threshold
}

// Query is one monitoring intent: a set of branches over a shared window
// plus an optional merge.
type Query struct {
	Name        string
	Description string
	Window      time.Duration
	Branches    []Branch
	Merge       *Merge // required iff len(Branches) > 1
}

// NumPrimitives counts primitives across branches (the x-axis of
// Fig. 15a).
func (q *Query) NumPrimitives() int {
	n := 0
	for _, b := range q.Branches {
		n += len(b.Prims)
	}
	return n
}

// Threshold returns the query's report threshold: the merge threshold
// for multi-branch queries, or the value of the final filter(result > v)
// for single-branch ones (0 if none).
func (q *Query) Threshold() uint64 {
	if q.Merge != nil {
		return uint64(q.Merge.Threshold)
	}
	for _, b := range q.Branches {
		for i := len(b.Prims) - 1; i >= 0; i-- {
			pr := b.Prims[i]
			if pr.Kind == KindFilter {
				for _, p := range pr.Preds {
					if p.OnResult() && (p.Op == CmpGt || p.Op == CmpGe) {
						return p.Value
					}
				}
			}
		}
	}
	return 0
}

// ReportKeys returns the key mask reports carry: the stateful keys of
// the first branch (the monitored entity, e.g. the victim address).
func (q *Query) ReportKeys() fields.Mask {
	if len(q.Branches) == 0 {
		return fields.Mask{}
	}
	if k := q.Branches[0].StatefulKeys(); !k.IsZero() {
		return k
	}
	// Stateless query: report the keys of the last map, if any.
	for i := len(q.Branches[0].Prims) - 1; i >= 0; i-- {
		if q.Branches[0].Prims[i].Kind == KindMap {
			return q.Branches[0].Prims[i].Keys
		}
	}
	return fields.Mask{}
}

// Validate checks structural well-formedness.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("query: missing name")
	}
	if len(q.Branches) == 0 {
		return fmt.Errorf("query %s: no branches", q.Name)
	}
	if len(q.Branches) > 1 && q.Merge == nil {
		return fmt.Errorf("query %s: multi-branch query needs a merge", q.Name)
	}
	if q.Merge != nil && q.Merge.Op == MergeLinear && len(q.Merge.Coeffs) != len(q.Branches) {
		return fmt.Errorf("query %s: merge wants %d coefficients, has %d",
			q.Name, len(q.Branches), len(q.Merge.Coeffs))
	}
	if q.Window <= 0 {
		return fmt.Errorf("query %s: non-positive window", q.Name)
	}
	for bi, b := range q.Branches {
		if len(b.Prims) == 0 {
			return fmt.Errorf("query %s: branch %d empty", q.Name, bi)
		}
		seenStateful := false
		for pi, pr := range b.Prims {
			switch pr.Kind {
			case KindFilter:
				if len(pr.Preds) == 0 {
					return fmt.Errorf("query %s: branch %d prim %d: empty filter", q.Name, bi, pi)
				}
				for _, p := range pr.Preds {
					if p.OnResult() && !seenStateful {
						return fmt.Errorf("query %s: branch %d prim %d: result predicate before any stateful primitive", q.Name, bi, pi)
					}
				}
			case KindMap:
				if pr.Keys.IsZero() {
					return fmt.Errorf("query %s: branch %d prim %d: map selects nothing", q.Name, bi, pi)
				}
			case KindDistinct, KindReduce:
				if pr.Keys.IsZero() {
					return fmt.Errorf("query %s: branch %d prim %d: %s without keys", q.Name, bi, pi, pr.Kind)
				}
				if pr.Kind == KindReduce && pr.Value != ValueOne && pr.Value >= fields.NumFields {
					return fmt.Errorf("query %s: branch %d prim %d: bad reduce value", q.Name, bi, pi)
				}
				seenStateful = true
			default:
				return fmt.Errorf("query %s: branch %d prim %d: unknown kind", q.Name, bi, pi)
			}
		}
	}
	return nil
}

// Equal reports whether two queries are the same query, field for field:
// what lets a planner reuse what it compiled from one for the other.
func Equal(a, b *Query) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name && a.Description == b.Description && a.Window == b.Window &&
		slices.EqualFunc(a.Branches, b.Branches, func(x, y Branch) bool {
			return slices.EqualFunc(x.Prims, y.Prims, func(p, r Primitive) bool {
				return p.Kind == r.Kind && slices.Equal(p.Preds, r.Preds) && p.Keys == r.Keys && p.Value == r.Value
			})
		}) &&
		(a.Merge == nil) == (b.Merge == nil) &&
		(a.Merge == nil || a.Merge.Op == b.Merge.Op && slices.Equal(a.Merge.Coeffs, b.Merge.Coeffs) &&
			a.Merge.Cmp == b.Merge.Cmp && a.Merge.Threshold == b.Merge.Threshold)
}

// Clone returns a deep copy of q: the copy shares no slice or pointer
// with q.
func (q *Query) Clone() *Query {
	c := *q
	c.Branches = make([]Branch, len(q.Branches))
	for i, b := range q.Branches {
		c.Branches[i].Prims = make([]Primitive, len(b.Prims))
		for j, pr := range b.Prims {
			pr.Preds = slices.Clone(pr.Preds)
			c.Branches[i].Prims[j] = pr
		}
	}
	if q.Merge != nil {
		m := *q.Merge
		m.Coeffs = slices.Clone(m.Coeffs)
		c.Merge = &m
	}
	return &c
}

// String renders the query in builder style.
func (q *Query) String() string {
	s := q.Name + ":"
	for bi, b := range q.Branches {
		if len(q.Branches) > 1 {
			s += fmt.Sprintf("\n  branch %d:", bi)
		}
		for _, pr := range b.Prims {
			s += "\n    ." + pr.String()
		}
	}
	if q.Merge != nil {
		s += fmt.Sprintf("\n  merge(op=%d, threshold=%d)", q.Merge.Op, q.Merge.Threshold)
	}
	return s
}
