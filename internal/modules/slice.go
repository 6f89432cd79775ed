package modules

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/newton-net/newton/internal/dataplane"
)

// ErrUnsliceable is SliceProgram's refusal of a cut after which a
// partition cannot compute what the whole query computes.
var ErrUnsliceable = errors.New("cut cannot be continued on the next switch")

// SliceProgram partitions a compiled program for cross-switch query
// execution (§5.1's model parallelism): partition k receives the ops of
// logical stages (k·stagesPer, (k+1)·stagesPer], rebased to start at
// stage 1, so "a query with 10 stages needs 4 3-stage switches". Ops are
// deep-copied, each partition installs on its own switch, and each
// branch's partition is a contiguous run of its stage-ordered chain.
// The partitions are built in one arena, each a contiguous run of its
// arrays.
//
// The partitions compute what the whole program computes, or the cut is
// refused: a cross-branch state read must share a partition with the
// bank it reads (state lives on one switch), and a cut the next switch
// cannot continue from (see prefix) is ErrUnsliceable. The controller
// then uses fewer, larger partitions.
func SliceProgram(p *Program, stagesPer int) ([]*Program, error) {
	if stagesPer <= 0 {
		return nil, fmt.Errorf("modules: non-positive partition size")
	}
	for bi, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Kind != ModS || op.S == nil || !op.S.CrossRead {
				continue
			}
			tgt := p.row0(op.S.ReadBranch)
			if tgt == nil {
				return nil, fmt.Errorf("modules: branch %d reads row0 of branch %d, which has none", bi, op.S.ReadBranch)
			}
			if (op.Stage-1)/stagesPer != (tgt.Stage-1)/stagesPer {
				return nil, fmt.Errorf("modules: %d-stage partitions separate a cross-branch read (stage %d) from its bank (stage %d); use larger partitions",
					stagesPer, op.Stage, tgt.Stage)
			}
		}
	}
	n := max(1, (p.NumStages()+stagesPer-1)/stagesPer)
	// The first pass checks every cut and counts what the partitions
	// hold, the second builds them: a cut is cheap to find again.
	var c Counts
	for k := range n {
		c.Branches += len(p.Branches)
		for bi, b := range p.Branches {
			cb, err := cutBranch(b, k*stagesPer, (k+1)*stagesPer)
			// One snapshot rides the packet, taken after the query's last
			// chain that ran: a branch that continues past a cut must run
			// last on every packet it matches.
			for later := bi + 1; err == nil && k > 0 && cb.len() > 0 && later < len(p.Branches); later++ {
				if b.Init.overlaps(&p.Branches[later].Init) {
					err = fmt.Errorf("branch %d runs after it on the same packets: %w", later, ErrUnsliceable)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("modules: query %s branch %d past stage %d: %w", p.Name, bi, k*stagesPer, err)
			}
			c.Ops += cb.len()
			for _, op := range cb.prefix[:cb.n] {
				c.config(op)
			}
			for _, op := range cb.body {
				c.config(op)
			}
		}
	}
	// The names share one buffer, sized once by Grow: each is a
	// substring of what String returns as the buffer fills.
	var names strings.Builder
	names.Grow(n * (len(p.Name) + len("/part") + len(strconv.Itoa(n))))
	a := NewArena(c)
	progs, parts := make([]Program, n), make([]*Program, n)
	for k := range parts {
		from := names.Len()
		names.WriteString(p.Name)
		names.WriteString("/part")
		names.WriteString(strconv.Itoa(k))
		part := &progs[k]
		part.QID, part.Name, part.Part, part.TotalParts = p.QID, names.String()[from:], k, n
		part.Branches = a.Branches(len(p.Branches))
		for bi, b := range p.Branches {
			cb, _ := cutBranch(b, k*stagesPer, (k+1)*stagesPer)
			nb := part.Branches[bi]
			nb.Init, nb.Ops = b.Init, a.Ops(cb.len())
			for i, op := range cb.prefix[:cb.n] {
				a.copyOp(nb.Ops[i], op, prefixStage(op))
			}
			for i, op := range cb.body {
				a.copyOp(nb.Ops[cb.n+i], op, op.Stage+cb.shift)
			}
		}
		parts[k] = part
	}
	return parts, nil
}

// overlaps reports whether some packet matches both newton_init entries.
func (m *InitMatch) overlaps(o *InitMatch) bool {
	for c := range m.Values {
		if (m.Values[c]^o.Values[c])&m.Masks[c]&o.Masks[c] != 0 {
			return false
		}
	}
	return true
}

// row0 returns the state op of a branch's last row-0 bank, the bank
// cross-branch reads target, or nil.
func (p *Program) row0(branch int) *Op {
	if branch < 0 || branch >= len(p.Branches) {
		return nil
	}
	var found *Op
	for _, op := range p.Branches[branch].Ops {
		if op.Kind == ModS && op.S != nil && op.S.Row0 {
			found = op
		}
	}
	return found
}

// cut is what one branch's partition holds: its continuation prefix,
// then the ops of its stages (the body), which move by shift.
type cut struct {
	prefix [4]*Op
	n      int
	body   []*Op
	shift  int
}

func (c *cut) len() int { return c.n + len(c.body) }

// prefixStage is where a prefix op runs: each K at stage 1, each H at 2.
func prefixStage(op *Op) int {
	if op.Kind == ModK {
		return 1
	}
	return 2
}

// cutBranch finds the ops of b with logical stages in (lo, hi], rebased
// by -lo; a partition after the first leads with its two-stage
// continuation prefix, and its body shifts by two more.
func cutBranch(b *BranchProgram, lo, hi int) (cut, error) {
	i := sort.Search(len(b.Ops), func(x int) bool { return b.Ops[x].Stage > lo })
	j := sort.Search(len(b.Ops), func(x int) bool { return b.Ops[x].Stage > hi })
	c := cut{body: b.Ops[i:j], shift: -lo}
	if lo > 0 && len(c.body) > 0 {
		if err := prefix(&c, b.Ops[:i]); err != nil {
			return cut{}, err
		}
		if c.n > 0 {
			c.shift += 2
		}
	}
	return c, nil
}

// prefix finds the continuation prefix of the partition after a cut
// (c.body). The result snapshot carries only state and global results,
// which keeps it at 12 bytes, so the partition re-derives operation keys
// and hashes from the packet headers: the prefix copies the last K (at
// stage 1) and then the last H (at stage 2) before the cut (pre) of each
// metadata set the body uses. It is ErrUnsliceable instead if the body
// would not see what the whole chain holds at the cut:
//   - the prefix's hash is the one the chain held only if the last H
//     hashed the last K's keys, so a set re-keyed since its last hash
//     must hash again before the body reads the hash;
//   - the snapshot carries the global result saturated to 16 bits, so
//     unless the chain built it from Bloom bits alone, which always fit,
//     the body may use the global it inherits only in ways the
//     saturation does not change (survivesSaturation).
func prefix(c *cut, pre []*Op) error {
	var lastK, lastH [2]*Op
	var bit [2]bool // the set's state result is a Bloom row's bit
	narrow := true  // the global fits 16 bits whatever the traffic
	for _, op := range pre {
		set := op.Set & 1
		switch op.Kind {
		case ModK:
			lastK[set] = op
		case ModH:
			lastH[set] = op
		case ModS:
			bit[set] = op.S.ALU == dataplane.OpOr && op.S.Operand == OperandConst && !op.S.PassThrough
		case ModR:
			after := true // over every entry: which one matches is the packet's
			for _, e := range op.R.Entries {
				n := narrow
				for _, a := range e.Actions {
					switch a.Kind {
					case RActSetGlobal, RActGlobalAdd:
						n = bit[set] && (n || a.Kind == RActSetGlobal)
					case RActGlobalScale:
						n = false
					}
				}
				after = after && n
			}
			narrow = after
		}
	}
	var uses, decided [2]bool // decided: the body rehashed or read the set's hash
	inherited := !narrow      // the body still holds a global the snapshot saturated
	for _, op := range c.body {
		set := op.Set & 1
		uses[set] = true
		if !decided[set] && (op.Kind == ModH || op.Kind == ModS) {
			decided[set] = true
			if k, h := lastK[set], lastH[set]; op.Kind == ModS && k != nil && (h == nil || h.Stage < k.Stage) {
				return fmt.Errorf("set %d is re-keyed at stage %d after its last hash, which stage %d reads: %w",
					set, k.Stage, op.Stage, ErrUnsliceable)
			}
		}
		if op.Kind != ModR || !inherited {
			continue
		}
		inherited = false
		for _, e := range op.R.Entries {
			if !survivesSaturation(op.R, &e) {
				return fmt.Errorf("stage %d computes on a global the snapshot saturated to 16 bits: %w", op.Stage, ErrUnsliceable)
			}
			inherited = inherited || !slices.ContainsFunc(e.Actions, func(a RAct) bool { return a.Kind == RActSetGlobal })
		}
	}
	for _, last := range [2][2]*Op{lastK, lastH} { // the Ks at stage 1, the Hs at 2
		for set, op := range last {
			if uses[set] && op != nil {
				c.prefix[c.n] = op
				c.n++
			}
		}
	}
	return nil
}

// survivesSaturation reports whether entry e of r acts the same on a
// global and on its 16-bit saturation: a min, a test against bounds
// strictly inside 16 bits or at the compiler's open ends (±2^62), and a
// report from a range strictly inside 16 bits do; a sum or a scale does
// not.
func survivesSaturation(r *RConfig, e *REntry) bool {
	inside := func(b int64) bool { return b > math.MinInt16 && b < math.MaxInt16 }
	tested := func(b int64) bool { return inside(b) || b <= -1<<62 || b >= 1<<62 }
	if r.OnGlobal && !(tested(e.Lo) && tested(e.Hi)) {
		return false
	}
	return !slices.ContainsFunc(e.Actions, func(a RAct) bool {
		return a.Kind == RActGlobalAdd || a.Kind == RActGlobalScale ||
			a.Kind == RActReport && !(r.OnGlobal && inside(e.Lo) && inside(e.Hi))
	})
}
