package telemetry

import (
	"math"
	"slices"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// QueryAccuracy is the analyzer's per-epoch estimate of how wrong a
// query's merged answer can be, derived from the merged bank geometry
// and the measured stream total — the feedback signal the refiner
// closes the loop on. All bounds are computed over the NETWORK-WIDE
// merge: the Count-Min guarantee ε·N holds for the summed rows with N
// the total stream across every contributing switch, never a single
// contributor's share.
type QueryAccuracy struct {
	Epoch uint32

	// StreamTotal is the measured N of the merged stream: the largest
	// per-row counter sum across the query's Count-Min banks (every row
	// of a sketch counts each update exactly once, so any row's sum is
	// the update total; max is robust to rows from narrower shards).
	StreamTotal uint64

	// Scale is the denominator RelErr was computed against: the
	// caller-supplied decision scale (a report threshold, typically),
	// or StreamTotal itself when the caller passed zero.
	Scale uint64

	// Count-Min bound of the weakest merged row group: with probability
	// 1-Delta every point estimate overcounts by at most AbsErr =
	// Eps·StreamTotal, i.e. RelErr = AbsErr/Scale.
	Eps     float64
	Delta   float64
	AbsErr  float64
	RelErr  float64
	Width   uint32 // narrowest merged Count-Min row width
	CMSRows int    // rows in the weakest Count-Min group

	// FPP is the worst distinct-filter false-positive probability across
	// the query's Bloom groups, estimated from the merged fill ratios:
	// a lookup passes a row with probability ≈ its fraction of set
	// slots, and must pass every row.
	FPP       float64
	BloomRows int

	// Partial and Transition mirror EpochStatus: the estimate is
	// advisory when contributors are missing or the epoch straddles a
	// width resize, and the refiner must not act on it.
	Partial    bool
	Transition bool

	bloomFills []float64 // worst group's per-row fills, for prediction
}

// Observed is the single figure the refiner compares against an
// intent's MaxRelErr: the worse of the Count-Min relative error and the
// distinct-filter false-positive probability.
func (qa QueryAccuracy) Observed() float64 {
	return math.Max(qa.RelErr, qa.FPP)
}

// PredictedAtWidth projects the observed error onto a hypothetical row
// width w, assuming the same stream: Count-Min error scales inversely
// with width, and each Bloom row's fill ratio scales inversely with
// width (capped at saturation). Used by the refiner to decide whether a
// narrower deployment would still meet its target before paying for the
// resize.
func (qa QueryAccuracy) PredictedAtWidth(w uint32) float64 {
	if w == 0 {
		return math.Inf(1)
	}
	var rel float64
	if qa.Width > 0 {
		rel = qa.RelErr * float64(qa.Width) / float64(w)
	}
	fpp := 0.0
	if len(qa.bloomFills) > 0 && qa.Width > 0 {
		factor := float64(qa.Width) / float64(w)
		fpp = 1.0
		for _, f := range qa.bloomFills {
			fpp *= math.Min(1, f*factor)
		}
	}
	return math.Max(rel, fpp)
}

// ObservedAccuracy computes the error estimate for query qid at epoch
// from the merged banks. scale is the decision denominator for RelErr
// (a report threshold); zero means "relative to the stream total". The
// second return is false when no merged banks exist for (qid, epoch).
func (s *Service) ObservedAccuracy(qid int, epoch uint32, scale uint64) (QueryAccuracy, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[qid]
	es := q.find(epoch)
	if es == nil {
		return QueryAccuracy{}, false
	}

	qa := QueryAccuracy{Epoch: epoch}
	var fillBuf [8]float64
	// The banks are sorted by (part, branch, row), so each independent
	// sketch instance — one Count-Min or one Bloom filter per query
	// partition and plan branch, whose rows share a width and count the
	// same stream — is a run of them.
	for lo, hi := 0, 0; lo < len(es.banks); lo = hi {
		var n uint64     // max per-row counter sum = merged stream total
		var width uint32 // narrowest Count-Min row
		rows, fills := 0, fillBuf[:0]
		for hi = lo; hi < len(es.banks) && es.banks[hi].part == es.banks[lo].part && es.banks[hi].branch == es.banks[lo].branch; hi++ {
			m := &es.banks[hi]
			if len(m.Switches) == 0 {
				continue
			}
			switch m.Kind {
			case modules.BankCMSRow:
				n = max(n, m.cells.Sum())
				if rows == 0 || m.Width < width {
					width = m.Width
				}
				rows++
			case modules.BankBloomRow:
				fills = append(fills, sketch.BloomRowFill(m.cells.Nonzero(), m.Width))
			}
		}
		if rows > 0 {
			qa.StreamTotal = max(qa.StreamTotal, n)
			if abs := sketch.CMSAbsError(width, n); abs > qa.AbsErr || qa.Width == 0 {
				qa.AbsErr = abs
				qa.Width = width
				qa.CMSRows = rows
				qa.Eps = math.E / float64(width)
				qa.Delta = math.Exp(-float64(rows))
			}
		}
		if len(fills) > 0 {
			if fpp := sketch.BloomFPPFromFills(fills); fpp > qa.FPP || qa.BloomRows == 0 {
				qa.FPP = fpp
				qa.BloomRows = len(fills)
				qa.bloomFills = slices.Clone(fills)
			}
		}
	}

	qa.Scale = scale
	if qa.Scale == 0 {
		qa.Scale = qa.StreamTotal
	}
	if qa.Scale > 0 {
		qa.RelErr = qa.AbsErr / float64(qa.Scale)
	}
	qa.Transition = es.transition
	qa.Partial = qa.Transition || q.missing(es) > 0
	return qa, true
}

// LatestSettledEpoch returns the newest epoch of query qid whose merge
// is settled — every expected contributor delivered and the epoch does
// not straddle a width resize — so the refiner only ever acts on
// complete evidence. The second return is false when no such epoch
// exists yet.
func (s *Service) LatestSettledEpoch(qid int) (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[qid]
	if q == nil {
		return 0, false
	}
	for i := len(q.epochs) - 1; i >= 0; i-- {
		if es := q.epochs[i]; !es.transition && q.missing(es) == 0 {
			return es.epoch, true
		}
	}
	return 0, false
}
