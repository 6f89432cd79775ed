// Package analyzer is the software side of Newton: an exact reference
// implementation of the query semantics (the role Spark plays in the
// paper). It serves two purposes: computing ground truth for accuracy
// experiments, and collecting/validating the reports switches mirror up.
package analyzer

import (
	"fmt"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
)

// Alert is one query trigger: in window w, the monitored key crossed the
// query's threshold with the given merged value.
type Alert struct {
	Window uint64
	Key    uint64 // value of the query's (single-field) report key
	Value  int64  // merged/combined value at trigger time
}

// branchState is one branch's per-window state.
type branchState struct {
	distinct map[string]bool   // per distinct primitive occurrence sets (keyed by prim index + key bytes)
	reduce   map[uint64]uint64 // stateful key value -> folded value
}

func newBranchState() *branchState {
	return &branchState{distinct: map[string]bool{}, reduce: map[uint64]uint64{}}
}

// Engine evaluates one query exactly, with per-window state and
// tumbling-window resets.
type Engine struct {
	q        *query.Query
	window   uint64 // window length in ns
	curWin   uint64
	branches []*branchState
	alerts   []Alert

	// finals accumulates, per window, the exact per-key merged value at
	// window end — the accuracy experiments' ground truth.
	finals map[uint64]map[uint64]int64
}

// NewEngine builds a reference engine for q.
func NewEngine(q *query.Query) *Engine {
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("analyzer: invalid query: %v", err))
	}
	e := &Engine{
		q:      q,
		window: uint64(q.Window),
		finals: map[uint64]map[uint64]int64{},
	}
	e.resetWindow()
	return e
}

func (e *Engine) resetWindow() {
	e.branches = make([]*branchState, len(e.q.Branches))
	for i := range e.branches {
		e.branches[i] = newBranchState()
	}
}

// windowOf maps a timestamp to its window index.
func (e *Engine) windowOf(ts uint64) uint64 { return ts / e.window }

// rollTo closes windows up to the one containing ts and returns the
// alerts the closing window produced.
func (e *Engine) rollTo(ts uint64) []Alert {
	w := e.windowOf(ts)
	if w == e.curWin {
		return nil
	}
	alerts := e.closeWindow()
	e.curWin = w
	e.resetWindow()
	return alerts
}

// closeWindow evaluates the ending window: it records the merged per-key
// finals and emits alerts for keys crossing the threshold. Per the
// paper's evaluation discipline, "values of reduce and distinct are
// evaluated and reset every 100ms" — queries report per window, which
// also gives multi-branch merges their natural retrospective semantics
// (a TCP SYN anywhere in the window vetoes Q9's DNS-only host, whatever
// the packet order).
func (e *Engine) closeWindow() []Alert {
	keys := map[uint64]bool{}
	for _, bs := range e.branches {
		for k := range bs.reduce {
			keys[k] = true
		}
	}
	if len(keys) == 0 {
		return nil
	}
	m := map[uint64]int64{}
	var alerts []Alert
	for k := range keys {
		g := e.mergedValue(k)
		m[k] = g
		var triggered bool
		if e.q.Merge != nil {
			triggered = e.q.Merge.Triggered(g)
		} else {
			th := e.q.Threshold()
			triggered = th > 0 && g > int64(th)
		}
		if triggered {
			alerts = append(alerts, Alert{Window: e.curWin, Key: k, Value: g})
		}
	}
	e.finals[e.curWin] = m
	e.alerts = append(e.alerts, alerts...)
	return alerts
}

// mergedValue combines branch results for key k under the query's merge
// (or returns branch 0's value for single-branch queries).
func (e *Engine) mergedValue(k uint64) int64 {
	if e.q.Merge == nil {
		return int64(e.branches[0].reduce[k])
	}
	rs := make([]uint64, len(e.branches))
	for i, bs := range e.branches {
		rs[i] = bs.reduce[k]
	}
	return e.q.Merge.Apply(rs)
}

// Process evaluates one packet, updating window state. It returns the
// alerts of any window the packet's timestamp closes (alerts are
// per-window, emitted when the window ends). Packets must arrive in
// non-decreasing timestamp order.
func (e *Engine) Process(p *packet.Packet) []Alert {
	out := e.rollTo(p.TS)
	v := p.Fields()
	for bi := range e.q.Branches {
		e.evalBranch(bi, &v)
	}
	return out
}

// evalBranch runs the packet through branch bi. It returns the branch's
// stateful key value and whether the packet survived the whole chain
// (including any trailing result filters).
func (e *Engine) evalBranch(bi int, v *fields.Vector) (uint64, bool) {
	b := &e.q.Branches[bi]
	bs := e.branches[bi]
	keys := fields.KeepAll()
	var result uint64
	var keyVal uint64
	haveState := false

	for pi, pr := range b.Prims {
		switch pr.Kind {
		case query.KindFilter:
			for _, pred := range pr.Preds {
				var val uint64
				if pred.OnResult() {
					val = result
				} else {
					val = v.Get(pred.Field)
				}
				if !pred.Eval(val) {
					return keyVal, false
				}
			}
		case query.KindMap:
			keys = pr.Keys
		case query.KindDistinct:
			keys = pr.Keys
			kb := string(pr.Keys.Bytes(v, make([]byte, 0, 32)))
			id := fmt.Sprintf("%d/%s", pi, kb)
			if bs.distinct[id] {
				return keyVal, false // not the first occurrence
			}
			bs.distinct[id] = true
			result = 1
		case query.KindReduce:
			keys = pr.Keys
			kv := singleKeyValue(pr.Keys, v)
			delta := uint64(1)
			if pr.Value != query.ValueOne {
				delta = v.Get(pr.Value)
			}
			bs.reduce[kv] += delta
			result = bs.reduce[kv]
			keyVal = kv
			haveState = true
		}
	}
	_ = keys
	if !haveState {
		// Stateless branch: survived filters/maps but has nothing to
		// merge or threshold; it never alerts.
		return keyVal, false
	}
	return keyVal, true
}

// singleKeyValue extracts the masked value of a key mask. Multi-field
// stateful keys fold by XOR of masked values — only used by distinct
// (whose state is keyed by full bytes anyway); reduce keys in all nine
// evaluation queries are single-field, where this is exact.
func singleKeyValue(m fields.Mask, v *fields.Vector) uint64 {
	var out uint64
	for _, id := range m.Fields() {
		out ^= v.Get(id) & m[id]
	}
	return out
}

// Run processes an entire timestamp-sorted trace and returns all alerts.
func (e *Engine) Run(pkts []*packet.Packet) []Alert {
	for _, p := range pkts {
		e.Process(p)
	}
	e.Flush()
	return e.alerts
}

// Flush closes the current window (recording its finals and alerts) and
// returns that window's alerts. Call after the last packet.
func (e *Engine) Flush() []Alert {
	alerts := e.closeWindow()
	e.resetWindow() // make Flush idempotent
	return alerts
}

// Alerts returns all alerts so far.
func (e *Engine) Alerts() []Alert { return e.alerts }

// FlaggedKeys returns the distinct keys that alerted in any window.
func (e *Engine) FlaggedKeys() map[uint64]bool {
	out := map[uint64]bool{}
	for _, a := range e.alerts {
		out[a.Key] = true
	}
	return out
}

// FinalCounts returns the exact merged per-key value at the end of each
// window: FinalCounts()[window][key].
func (e *Engine) FinalCounts() map[uint64]map[uint64]int64 { return e.finals }
