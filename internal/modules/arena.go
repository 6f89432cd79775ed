package modules

// Counts are a program's totals: its branch slots, its ops, the K, H, S
// and R configs those ops carry, and the R entries and actions. They are
// the header of a program's storage, and of its install encoding.
type Counts struct {
	Branches, Ops, K, H, S, R, Entries, Actions int
}

// Counts totals p's parts. A nil branch or op still takes its slot, so
// Clone keeps it where it was.
func (p *Program) Counts() Counts {
	c := Counts{Branches: len(p.Branches)}
	for _, b := range p.Branches {
		if b == nil {
			continue
		}
		c.Ops += len(b.Ops)
		for _, op := range b.Ops {
			if op != nil {
				c.config(op)
			}
		}
	}
	return c
}

// config counts op's configs, entries and actions.
func (c *Counts) config(op *Op) {
	if op.K != nil {
		c.K++
	}
	if op.H != nil {
		c.H++
	}
	if op.S != nil {
		c.S++
	}
	if op.R != nil {
		c.R++
		c.Entries += len(op.R.Entries)
		for _, e := range op.R.Entries {
			c.Actions += len(e.Actions)
		}
	}
}

// Arena is the storage programs are built in: one backing array each of
// branches, branch pointers, ops, op pointers, K, H, S and R configs, R
// entries and R actions, made at the sizes Counts gives. Every program
// is built in one — the compiler's result, SliceProgram's partitions, a
// Clone, a decoded install — so a program costs the same dozen
// allocations whatever its size.
//
// A take hands out the next elements of an array. Taking none gives
// nil, as a program with no ops, entries or actions holds; a take past
// the totals gives nil too and marks the arena Over.
type Arena struct {
	branches   []BranchProgram
	branchPtrs []*BranchProgram
	ops        []Op
	opPtrs     []*Op
	ks         []KConfig
	hs         []HConfig
	ss         []SConfig
	rs         []RConfig
	entries    []REntry
	actions    []RAct
	over       bool
}

// NewArena makes the arrays of an arena holding exactly c.
func NewArena(c Counts) Arena {
	return Arena{
		branches: make([]BranchProgram, c.Branches), branchPtrs: make([]*BranchProgram, c.Branches),
		ops: make([]Op, c.Ops), opPtrs: make([]*Op, c.Ops),
		ks: make([]KConfig, c.K), hs: make([]HConfig, c.H), ss: make([]SConfig, c.S), rs: make([]RConfig, c.R),
		entries: make([]REntry, c.Entries), actions: make([]RAct, c.Actions),
	}
}

// take returns the next n elements of s.
func take[T any](a *Arena, s *[]T, n int) []T {
	if n > len(*s) {
		a.over = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// next returns the next element of s.
func next[T any](a *Arena, s *[]T) *T {
	if t := take(a, s, 1); t != nil {
		return &t[0]
	}
	return nil
}

// pointTo points each of ptrs at its element of vals.
func pointTo[T any](ptrs []*T, vals []T) []*T {
	for i := range ptrs {
		ptrs[i] = &vals[i]
	}
	return ptrs
}

// Branches takes n branches, each behind a pointer of its own.
func (a *Arena) Branches(n int) []*BranchProgram {
	return pointTo(take(a, &a.branchPtrs, n), take(a, &a.branches, n))
}

// Ops takes n ops, each behind a pointer of its own.
func (a *Arena) Ops(n int) []*Op {
	return pointTo(take(a, &a.opPtrs, n), take(a, &a.ops, n))
}

// K, H, S and R take one config each.
func (a *Arena) K() *KConfig { return next(a, &a.ks) }
func (a *Arena) H() *HConfig { return next(a, &a.hs) }
func (a *Arena) S() *SConfig { return next(a, &a.ss) }
func (a *Arena) R() *RConfig { return next(a, &a.rs) }

// Entries takes n R entries.
func (a *Arena) Entries(n int) []REntry { return take(a, &a.entries, n) }

// Actions takes n R actions.
func (a *Arena) Actions(n int) []RAct { return take(a, &a.actions, n) }

// Over reports whether a take asked for more than the totals.
func (a *Arena) Over() bool { return a.over }

// Spent reports whether every part has been taken.
func (a *Arena) Spent() bool {
	return len(a.branches)+len(a.ops)+len(a.ks)+len(a.hs)+len(a.ss)+len(a.rs)+len(a.entries)+len(a.actions) == 0
}

// copyOp makes dst a copy of src at stage, with configs, entries and
// actions of its own from the arena and none of an install's bindings.
func (a *Arena) copyOp(dst, src *Op, stage int) {
	*dst = Op{Kind: src.Kind, Set: src.Set, Stage: stage}
	if src.K != nil {
		dst.K = a.K()
		dst.K.Mask = src.K.Mask
	}
	if src.H != nil {
		dst.H = a.H()
		*dst.H = *src.H
	}
	if src.S != nil {
		dst.S = a.S()
		*dst.S = *src.S
		dst.S.array, dst.S.width = nil, 0
	}
	if src.R != nil {
		dst.R = a.R()
		dst.R.OnGlobal = src.R.OnGlobal
		dst.R.Entries = a.Entries(len(src.R.Entries))
		for i, e := range src.R.Entries {
			dst.R.Entries[i] = REntry{Lo: e.Lo, Hi: e.Hi, Actions: a.Actions(len(e.Actions))}
			copy(dst.R.Entries[i].Actions, e.Actions)
		}
	}
}

// Clone returns a deep copy of p, built in an arena of its own, that
// shares no branch, op or module config with p and carries none of an
// install's bindings. Install binds registers and masks into the ops it
// is given, so each engine installs a program of its own: a controller
// that hands one program to several in-process engines hands each a
// Clone.
func (p *Program) Clone() *Program {
	a := NewArena(p.Counts())
	out := &Program{QID: p.QID, Name: p.Name, Part: p.Part, TotalParts: p.TotalParts,
		Branches: a.Branches(len(p.Branches))}
	for i, b := range p.Branches {
		if b == nil {
			out.Branches[i] = nil // wellFormed refuses it at install
			continue
		}
		nb := out.Branches[i]
		nb.Init, nb.Ops = b.Init, a.Ops(len(b.Ops))
		for j, op := range b.Ops {
			if op == nil {
				nb.Ops[j] = nil
				continue
			}
			a.copyOp(nb.Ops[j], op, op.Stage)
		}
	}
	return out
}
