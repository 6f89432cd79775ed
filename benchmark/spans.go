package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval around a call into a layer. Spans live in
// the benchmark's own files: the program is timed from outside.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`  // "workload/cycle#": shared by every span of one cycle
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // operations covered (packets, reports)

	// Self is the span's own time: its duration minus the part its
	// child spans cover.
	Self int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per boundary.
// The driver is one goroutine, so the open-span stack needs no lock.
type recorder struct {
	t0    time.Time
	trace string
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent,
		Start: int64(time.Since(r.t0))})
}

// end closes the innermost open span, noting how many operations it
// covered.
func (r *recorder) end(count int) {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End, s.Count = int64(time.Since(r.t0)), count
	s.Self += s.End - s.Start
	if s.Parent >= 0 {
		r.spans[s.Parent].Self -= s.End - s.Start
	}
}

// cyclesWith returns the trace ids of the cycles that have a span
// called name.
func (r *recorder) cyclesWith(name string) map[string]bool {
	out := map[string]bool{}
	for i := range r.spans {
		if r.spans[i].Name == name {
			out[r.spans[i].Trace] = true
		}
	}
	return out
}

// perCycle sums, within each cycle not in skip, the durations (ns) and
// the operation counts of every span called name: one entry per cycle
// that has such a span.
func (r *recorder) perCycle(name string, skip map[string]bool) (ns, counts []float64) {
	last := ""
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != name || skip[s.Trace] {
			continue
		}
		if s.Trace != last {
			ns, counts, last = append(ns, 0), append(counts, 0), s.Trace
		}
		ns[len(ns)-1] += float64(s.End - s.Start)
		counts[len(counts)-1] += float64(s.Count)
	}
	return ns, counts
}

// durations returns the length of every span called name, in ns, in
// the order they ran.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// perOp returns duration/count of every span called name, in ns.
func (r *recorder) perOp(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.Count > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Count))
		}
	}
	return out
}

// write dumps the span log as JSON.
func (r *recorder) write(path string) error {
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// setTrace names the cycle every following span belongs to.
func (r *recorder) setTrace(workload string, cycle uint64) {
	if r != nil {
		r.trace = fmt.Sprintf("%s/%d", workload, cycle)
	}
}
