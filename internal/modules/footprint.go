package modules

// Footprint is a program's hardware resource consumption in the paper's
// §6 vocabulary: pipeline stages spanned, hash units, stateful ALUs,
// state-bank register slots, and table rules split by kind. It is
// computed from compiled (and, once installed, placed) programs, so the
// numbers match what Install actually charged against the Layout.
type Footprint struct {
	Stages      int    // pipeline stages spanned (highest assigned stage + 1)
	HashUnits   int    // H module instances
	SALUs       int    // state-owning S module instances (stateful ALUs)
	Registers   uint32 // state-bank register slots across owning S ops
	InitRules   int    // newton_init classifier entries (one per branch)
	ResultRules int    // R-table entries
	Rules       int    // total module-table rules, all kinds

	// ClassifierPreds counts the distinct (column, value, mask)
	// predicates this program's newton_init entries contribute to the
	// compiled classifier. Per-dimension table width grows with distinct
	// predicates, not entries, so this is the dimension the width
	// ladder's classifier budget is charged in.
	ClassifierPreds int
}

// Footprint computes the program's resource footprint. Pass-through and
// cross-read S ops consume no registers or ALUs of their own (they read
// another branch's bank), matching Install's allocation rules.
// InitPredKey identifies one newton_init classifier predicate: a
// non-wildcard (column, masked value, mask) triple. Distinct keys are
// what the compiled classifier's per-dimension tables grow with.
type InitPredKey struct {
	Col       int
	Val, Mask uint64
}

// InitPreds appends the branch's classifier predicate keys to dst.
// Wildcard columns (mask 0) contribute nothing: the classifier skips
// them entirely.
func (b *BranchProgram) InitPreds(dst []InitPredKey) []InitPredKey {
	for c := range b.Init.Masks {
		if m := b.Init.Masks[c]; m != 0 {
			dst = append(dst, InitPredKey{c, b.Init.Values[c] & m, m})
		}
	}
	return dst
}

func (p *Program) Footprint() Footprint {
	var f Footprint
	maxStage := -1
	preds := map[InitPredKey]struct{}{}
	var pbuf []InitPredKey
	for _, b := range p.Branches {
		f.InitRules++
		pbuf = b.InitPreds(pbuf[:0])
		for _, k := range pbuf {
			preds[k] = struct{}{}
		}
		for _, op := range b.Ops {
			f.Rules++
			if op.Stage > maxStage {
				maxStage = op.Stage
			}
			switch op.Kind {
			case ModH:
				f.HashUnits++
			case ModS:
				if op.OwnsRegisters() {
					f.SALUs++
					f.Registers += op.Width()
				}
			case ModR:
				f.ResultRules++
			}
		}
	}
	f.Stages = maxStage + 1
	f.ClassifierPreds = len(preds)
	return f
}
