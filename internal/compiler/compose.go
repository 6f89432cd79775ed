package compiler

import (
	"fmt"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
)

// mergeTail appends the units of the cross-branch result merging of
// multi-branch queries (the worked example of Fig. 6): scale the
// branch's own count, read the other branches' row-0 state banks at the
// same key, fold them into the global result, and threshold-report.
func (c *Compiler) mergeTail(units []*unit, q *query.Query, bi int, o Options) []*unit {
	if q.Merge == nil {
		return units
	}
	m := q.Merge
	coeff := func(i int) int64 {
		if m.Op == query.MergeMin {
			return 1
		}
		if i < len(m.Coeffs) {
			return m.Coeffs[i]
		}
		return 1
	}

	// Scale the branch's own contribution (linear merges only; min
	// merges fold raw values).
	if m.Op == query.MergeLinear && coeff(bi) != 1 {
		u := c.unit(unit{tailRead: true})
		u.ops = append(u.ops, c.rOp(true, modules.REntry{Lo: -rInf, Hi: rInf,
			Actions: c.acts(modules.RAct{Kind: modules.RActGlobalScale, Coeff: coeff(bi)})}))
		units = append(units, u)
	}

	// Read each other branch's row-0 bank at this packet's key value.
	ownKeys := q.Branches[bi].StatefulKeys()
	for ob := range q.Branches {
		if ob == bi {
			continue
		}
		act := modules.RAct{Kind: modules.RActGlobalAdd, Coeff: coeff(ob)}
		if m.Op == query.MergeMin {
			act = modules.RAct{Kind: modules.RActGlobalMin}
		}
		u := c.unit(unit{tailRead: true})
		u.ops = append(u.ops,
			c.kOp(ownKeys),
			c.hOp(modules.HConfig{Algo: sketch.CRC32IEEE, Seed: rowSeed(0), Range: o.Width, Direct: modules.NoField}),
			c.sOp(modules.SConfig{
				ALU: dataplane.OpRead, Operand: modules.OperandConst,
				CrossRead: true, ReadBranch: ob, WidthHint: o.Width,
				OwnerIndex: o.ShardIndex, OwnerCount: o.ShardCount,
			}),
			c.rOp(false, modules.REntry{Lo: -rInf, Hi: rInf, Actions: c.acts(act)}))
		units = append(units, u)
	}

	// Threshold and report. For greater-than merges, the report fires in
	// the crossing window [Th+1, Th+step] where step bounds one packet's
	// contribution; linear merges can re-enter the window, so reports
	// may repeat (deduplicated by the analyzer).
	rep := c.unit(unit{reportR: true, gates: true})
	report := c.acts(modules.RAct{Kind: modules.RActReport})
	if m.Cmp == query.CmpLt {
		rep.ops = append(rep.ops, c.rOp(true, modules.REntry{Lo: -rInf, Hi: m.Threshold - 1, Actions: report}))
	} else {
		step := maxPositiveStep(q, m)
		rep.ops = append(rep.ops, c.rOp(true,
			modules.REntry{Lo: m.Threshold + 1, Hi: m.Threshold + step, Actions: report},
			modules.REntry{Lo: m.Threshold + step + 1, Hi: rInf}))
	}
	return append(units, rep)
}

// maxPositiveStep bounds how far one packet can push the merged value
// upward: counts step by 1, byte sums by a full MTU, each scaled by its
// branch coefficient.
func maxPositiveStep(q *query.Query, m *query.Merge) int64 {
	var step int64 = 1
	for bi := range q.Branches {
		inc := int64(1)
		for _, pr := range q.Branches[bi].Prims {
			if pr.Kind == query.KindReduce && pr.Value != query.ValueOne {
				inc = 1600 // MTU-class field values (PktLen)
			}
		}
		c := int64(1)
		if m.Op == query.MergeLinear && bi < len(m.Coeffs) {
			c = m.Coeffs[bi]
		}
		if c > 0 && c*inc > step {
			step = c * inc
		}
	}
	return step
}

// assignSets distributes units over the two metadata sets: vertical
// composition (Opt.3) alternates sets unit by unit so consecutive
// primitives can share physical stages; merge-tail reads take the set
// opposite the report keys, and the reporting R takes the report-key set
// so mirrored operation keys name the monitored entity.
func assignSets(units []*unit, o Options) {
	alt, row0Set := 0, 0
	for _, u := range units {
		if u.reportR {
			continue
		}
		// Merge-tail reads select the same key mask the row-0 K already
		// installed, so they can keep alternating without clobbering the
		// report keys (their redundant Ks prune away).
		set := 0
		if o.Opt3 {
			set = alt % 2
		}
		for _, op := range u.ops {
			op.Set = set
		}
		if u.isRow0 {
			row0Set = set
		}
		alt++
	}
	for _, u := range units {
		if u.reportR {
			for _, op := range u.ops {
				op.Set = row0Set
			}
		}
	}
}

// pruneRedundantK is the second half of Opt.2: contiguous primitives
// with identical operation keys share one K per metadata set, "as
// selected fields can be passed to the subsequent module". Units left
// empty (maps whose keys the next primitive re-selects) disappear
// entirely.
func pruneRedundantK(units []*unit) []*unit {
	var theta [2]*modules.KConfig
	out := units[:0]
	for _, u := range units {
		kept := u.ops[:0]
		for _, op := range u.ops {
			if op.Kind == modules.ModK {
				cur := theta[op.Set&1]
				if cur != nil && cur.Mask.Equal(op.K.Mask) {
					continue // redundant K: same keys already selected
				}
				theta[op.Set&1] = op.K
			}
			kept = append(kept, op)
		}
		u.ops = kept
		if len(u.ops) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// assignStages is Algorithm 1's placement loop. Each op takes the
// earliest stage that respects the module dependency matrix of Fig. 4:
//
//   - read-after-write within a metadata set: H after the K providing
//     its keys, S after the H providing its index, R after the S
//     providing its state result;
//   - write-after-read within a set: a K must not clobber operation keys
//     an earlier H still needs, an H must not clobber a hash an earlier
//     S still needs, an S must not clobber a state result an earlier R
//     still needs;
//   - the global result is a single shared field, so R modules touching
//     it serialize across both sets;
//   - control gating: state writes stay behind any earlier R that can
//     stop the packet (filters, the distinct gate).
//
// Without Opt.3 the composition is horizontal — strictly one module per
// stage, continuing from `start` so branches chain sequentially — and
// the function returns the new running stage counter.
func assignStages(units []*unit, o Options, start int) int {
	type setState struct{ k, h, s, r int }
	var last [2]setState
	lastGlobalR, lastGate, seq := 0, 0, start
	max := func(xs ...int) int {
		m := 0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	for _, u := range units {
		gateStage := 0
		for _, op := range u.ops {
			st := &last[op.Set&1]
			var s int
			if o.Opt3 {
				switch op.Kind {
				case modules.ModK:
					s = max(st.k, st.h) + 1
				case modules.ModH:
					s = max(st.k, st.h, st.s) + 1
				case modules.ModS:
					s = max(st.h, st.s, st.r) + 1
					if writesState(op) {
						s = max(s, lastGate+1)
					}
				case modules.ModR:
					s = max(st.s, st.r) + 1
					if usesGlobal(op) {
						s = max(s, lastGlobalR+1)
					}
				}
			} else {
				s = seq + 1
			}
			op.Stage = s
			seq = max(seq, s)
			switch op.Kind {
			case modules.ModK:
				st.k = max(st.k, s)
			case modules.ModH:
				st.h = max(st.h, s)
			case modules.ModS:
				st.s = max(st.s, s)
			case modules.ModR:
				st.r = max(st.r, s)
				gateStage = s
			}
			if usesGlobal(op) {
				lastGlobalR = max(lastGlobalR, s)
			}
		}
		if u.gates {
			lastGate = max(lastGate, gateStage)
		}
	}
	if o.Opt3 {
		return 0
	}
	return seq
}

// usesGlobal reports whether an R op reads or writes the global result.
func usesGlobal(op *modules.Op) bool {
	if op.Kind != modules.ModR || op.R == nil {
		return false
	}
	if op.R.OnGlobal {
		return true
	}
	for _, e := range op.R.Entries {
		for _, a := range e.Actions {
			switch a.Kind {
			case modules.RActSetGlobal, modules.RActGlobalAdd, modules.RActGlobalMin, modules.RActGlobalScale:
				return true
			}
		}
	}
	return false
}

// writesState reports whether an op mutates a state bank.
func writesState(op *modules.Op) bool {
	return op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough
}

// Stats summarizes a compiled program for the Fig. 15 axes.
type Stats struct {
	Query      string
	Primitives int
	Modules    int
	Stages     int
	Rules      int
}

// Measure computes compilation statistics for q under p.
func Measure(q *query.Query, p *modules.Program) Stats {
	return Stats{
		Query:      q.Name,
		Primitives: q.NumPrimitives(),
		Modules:    p.NumOps(),
		Stages:     p.NumStages(),
		Rules:      p.RuleCount(),
	}
}

// String renders the stats row.
func (s Stats) String() string {
	return fmt.Sprintf("%-24s prims=%-3d modules=%-3d stages=%-3d rules=%-3d",
		s.Query, s.Primitives, s.Modules, s.Stages, s.Rules)
}

// SonataEstimate models Sonata's compilation of the same query: one
// logical match-action table per stateless primitive, two per stateful
// primitive (hash + counter), chained sequentially — the estimation
// methodology of Jose et al. the paper cites for Fig. 15's comparison.
func SonataEstimate(q *query.Query) (tables, stages int) {
	for _, b := range q.Branches {
		for _, pr := range b.Prims {
			switch pr.Kind {
			case query.KindFilter, query.KindMap:
				tables++
				stages++
			case query.KindDistinct, query.KindReduce:
				tables += 2
				stages += 2
			}
		}
	}
	if q.Merge != nil {
		// The join/zip of branch results.
		tables += 2
		stages += 2
	}
	return tables, stages
}
