package main

import (
	"fmt"
	"math"
	"sort"
)

// floorRank is the order statistic every timing metric reports: the
// 5th-smallest of identical fixed-work samples. Noise on a shared host
// is one-sided (a neighbour or a cross-core wake-up only ever adds
// time), so the low order statistics repeat where the mean and the
// median wander; the 5th rather than the minimum keeps one freak-fast
// sample (a timer glitch, a skipped periodic cost) from setting the
// number.
const floorRank = 5

// Sample-count minimums per timing scale. A series thinner than its
// minimum is an error, never a number: a floor over too few samples is
// not yet below the noise.
const (
	minSamplesUs   = 1000 // µs-scale operations
	minSamplesMs   = 250  // ms-scale operations
	minSamplesLong = 100  // samples of 10 ms and more: a complete fleet set-up, a pass over 65536 packets
)

// series is one metric's samples of identical work.
type series struct {
	name string
	min  int // required sample count
	v    []float64
}

func (s *series) add(x float64) { s.v = append(s.v, x) }

// full reports whether the series has reached its minimum.
func (s *series) full() bool { return len(s.v) >= s.min }

// stats is what a series reduces to. Floor gates; P50 and Tail are
// recorded for readers and never gated.
type stats struct {
	N     int
	Floor float64
	P50   float64
	Tail  float64
}

func (s *series) stats() (stats, error) {
	if len(s.v) < s.min || len(s.v) < floorRank {
		return stats{}, fmt.Errorf("%s: %d samples, need %d", s.name, len(s.v), max(s.min, floorRank))
	}
	return reduce(s.v), nil
}

// reduce sorts a copy of v and reads off the floor, the median, and the
// highest percentile that still has ten samples beyond it.
func reduce(v []float64) stats {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	st := stats{N: n, Floor: s[min(floorRank, n)-1], P50: s[n/2]}
	ti := n - 11
	if ti < n/2 {
		ti = n / 2
	}
	st.Tail = s[ti]
	return st
}

// median is for counts (bytes, mallocs per cycle), which repeat exactly
// or nearly so and have no one-sided noise to floor away.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// mins are the sample-count minimums a run enforces, by the scale of
// one sample.
type mins struct{ us, ms, long int }

var fullMins = mins{us: minSamplesUs, ms: minSamplesMs, long: minSamplesLong}

// quietKind names the cycles that carry no intent probe; the other
// kinds are the probe kinds.
const quietKind = "quiet"

// samples is everything one measuring phase collects. The series of the
// cycle's steps are kept by the kind of cycle they ran in, so that each
// holds identical work; a metric is the mean over its series of each
// one's own floor — what the step costs, averaged over the workload's
// mix of cycles. A workload with quiet cycles has one kind of packet and
// settle sample (quiet) and its probe kinds of deploy and intent sample;
// one without has every step by probe kind.
//
// A packet sample is one switch's pass over the packet set with its
// report hand-off. Where every switch hosts every base intent the
// switches' passes are identical work and share a series; where they do
// not, each switch has its own.
type samples struct {
	m                            mins
	pooled                       bool // one packet series per kind, not per kind and switch
	pktNs                        map[string]*series
	settleMs, deployMs, intentMs map[string]*series
	alertUs, readUs              *series
	wireBytes, allocs            []float64 // per sampled cycle
	pkts, misses                 uint64    // engine counters over the sampled cycles

	// pass is, per switch, the packet sample being assembled: passes so
	// far and their time.
	pass []struct {
		n  int
		ns float64
	}
}

func newSamples(d *dials, m mins, pooled bool) *samples {
	s := &samples{m: m, pooled: pooled,
		pktNs: map[string]*series{}, settleMs: map[string]*series{},
		deployMs: map[string]*series{}, intentMs: map[string]*series{},
		alertUs: &series{name: "alert_us", min: m.us},
		readUs:  &series{name: "read_us", min: m.us},
	}
	s.pass = make([]struct {
		n  int
		ns float64
	}, d.switches)
	pktMin := m.ms
	if d.passes > 1 {
		pktMin = m.long
	}
	steady := func(kind string) {
		for sw := 0; sw < d.switches; sw++ {
			key := s.pktKey(kind, sw)
			s.pktNs[key] = &series{name: "pkts_per_s/" + key, min: pktMin}
		}
		s.settleMs[kind] = &series{name: "settle_ms/" + kind, min: m.ms}
	}
	if d.quiet {
		steady(quietKind)
	}
	for _, op := range d.ops {
		if !d.quiet {
			steady(op.kind)
		}
		s.deployMs[op.kind] = &series{name: "deploy_ms/" + op.kind, min: m.ms}
		if len(op.result) > 0 {
			s.intentMs[op.kind] = &series{name: "intent_ms/" + op.kind, min: m.ms}
		}
		if op.undo != nil {
			s.deployMs["withdraw"] = &series{name: "deploy_ms/withdraw", min: m.ms}
		}
	}
	return s
}

// pktKey names the packet series a switch's pass in a cycle of the
// given kind belongs to.
func (s *samples) pktKey(kind string, sw int) string {
	if s.pooled {
		return kind
	}
	return fmt.Sprintf("%s@s%d", kind, sw+1)
}

// addPass files one switch's pass over pkts packets; every group-th
// completes a sample of its packet series, in ns per packet.
func (s *samples) addPass(kind string, sw int, ns float64, pkts, group int) {
	a := &s.pass[sw]
	a.n, a.ns = a.n+1, a.ns+ns
	if a.n >= group {
		s.pktNs[s.pktKey(kind, sw)].add(a.ns / float64(a.n*pkts))
		a.n, a.ns = 0, 0
	}
}

// resetPasses drops half-assembled packet samples: a sample's passes
// are consecutive.
func (s *samples) resetPasses() { clear(s.pass) }

func (s *samples) all() []*series {
	out := []*series{s.alertUs, s.readUs}
	for _, m := range []map[string]*series{s.pktNs, s.settleMs, s.deployMs, s.intentMs} {
		for _, x := range m {
			out = append(out, x)
		}
	}
	return out
}

// full reports whether every series has its minimum sample count.
func (s *samples) full() bool {
	for _, x := range s.all() {
		if !x.full() {
			return false
		}
	}
	return true
}

// overKinds reduces every series of a metric and averages the results;
// N is the total sample count.
func overKinds(m map[string]*series) (stats, error) {
	var out stats
	for _, s := range m {
		st, err := s.stats()
		if err != nil {
			return stats{}, err
		}
		out.Floor, out.P50, out.Tail = out.Floor+st.Floor, out.P50+st.P50, out.Tail+st.Tail
		out.N += st.N
	}
	k := float64(len(m))
	out.Floor, out.P50, out.Tail = out.Floor/k, out.P50/k, out.Tail/k
	return out, nil
}
