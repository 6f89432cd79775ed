package sketch

import "math"

// CMSAbsError is the Count-Min overcount bound ε·N = (e/width)·N for a
// row of the given width over a stream of n items: with probability
// 1-e^-rows, an estimate exceeds the true count by at most this much.
//
// N is a property of the stream, not of any one switch's bank: when
// several switches' banks are merged counter-wise into one network-wide
// row, the bound holds for the merged total (the sum over contributors),
// never for any single contributor's count. Callers turning this bound
// into an observed-error estimate must pass the merged N — see
// telemetry.Service.ObservedAccuracy.
func CMSAbsError(width uint32, n uint64) float64 {
	if width == 0 {
		return math.Inf(1)
	}
	return math.E * float64(n) / float64(width)
}

// CMSWidthFor returns the narrowest power-of-two row width whose
// overcount bound ε·N stays within maxAbs counts for a stream of n
// items — the inverse of CMSAbsError, used to drive the accuracy ladder
// from a target instead of from capacity.
func CMSWidthFor(n uint64, maxAbs float64) uint32 {
	if maxAbs <= 0 || n == 0 {
		return 1
	}
	need := math.E * float64(n) / maxAbs
	if need <= 1 {
		return 1
	}
	if need >= float64(1<<30) {
		return 1 << 30
	}
	return nextPow2(uint32(math.Ceil(need)))
}

// BloomRowFill is the set fraction of one Bloom row: the fill ratio the
// analyzer observes directly from a merged bank's nonzero positions.
func BloomRowFill(nonzero int, width uint32) float64 {
	if width == 0 {
		return 1
	}
	f := float64(nonzero) / float64(width)
	if f > 1 {
		return 1
	}
	return f
}

// BloomFPPFromFills is the false-positive probability of a filter whose
// k hash rows have the given observed fill ratios: a never-inserted key
// reads a set position in every row, so the FPP is the product. It needs
// no insertion count — the fill is what the merged bank already shows.
func BloomFPPFromFills(fills []float64) float64 {
	if len(fills) == 0 {
		return 0
	}
	p := 1.0
	for _, f := range fills {
		p *= f
	}
	return p
}

func nextPow2(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	return v + 1
}
