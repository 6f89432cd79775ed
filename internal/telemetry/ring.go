package telemetry

import (
	"sync"

	"github.com/newton-net/newton/internal/dataplane"
)

// Policy decides what happens when the export ring is full.
type Policy int

const (
	// PolicyBlock applies backpressure: Put blocks until the writer
	// drains space. Nothing is ever lost; the data plane's drain loop
	// stalls instead (the lossless mode BenchmarkReportExport verifies).
	PolicyBlock Policy = iota
	// PolicyDropOldest evicts the oldest queued reports to admit new
	// ones, preferring fresh telemetry over stale when the analyzer or
	// the network falls behind. Every eviction is counted.
	PolicyDropOldest
)

// String names the policy as the -export-policy flag spells it.
func (p Policy) String() string {
	if p == PolicyDropOldest {
		return "drop-oldest"
	}
	return "block"
}

// ring is a bounded FIFO of reports with pluggable overflow policy. It
// is the buffer between the switch's packet path (producer) and the
// telemetry stream writer (consumer); its bound is what makes export
// memory predictable under report storms.
type ring struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond

	// buf starts at minRingSize and doubles when it fills, up to limit
	// (the configured RingSize): a queue that holds a handful of reports
	// outside a report storm does not pay for the storm's bound up front.
	buf   []dataplane.Report
	limit int
	head  int // index of oldest element
	count int

	closed      bool
	dropped     uint64 // reports evicted by PolicyDropOldest
	overflows   uint64 // full-ring events: one per burst, however many reports it blocks or evicts
	overflowing bool   // in an overflow burst; cleared when a drain frees space
	policy      Policy
}

// minRingSize is the ring's initial allocation, in reports.
const minRingSize = 64

func newRing(size int, policy Policy) *ring {
	if size <= 0 {
		size = 4096
	}
	r := &ring{buf: make([]dataplane.Report, min(size, minRingSize)), limit: size, policy: policy}
	r.notEmpty = sync.NewCond(&r.mu)
	r.notFull = sync.NewCond(&r.mu)
	return r
}

// put enqueues reports, applying the overflow policy when the ring
// fills. It reports how many were accepted (all of them under
// PolicyBlock, unless the ring closes mid-block).
func (r *ring) put(rs []dataplane.Report) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	accepted := 0
	for _, rep := range rs {
		if r.closed {
			break
		}
		if r.count == len(r.buf) && len(r.buf) < r.limit {
			r.grow()
		}
		if r.count == len(r.buf) {
			// One overflow per burst: consecutive full-ring hits without an
			// intervening drain are a single event, while `dropped` still
			// counts every evicted report.
			if !r.overflowing {
				r.overflowing = true
				r.overflows++
			}
			switch r.policy {
			case PolicyBlock:
				for r.count == len(r.buf) && !r.closed {
					r.notFull.Wait()
				}
				if r.closed {
					return accepted
				}
			case PolicyDropOldest:
				r.head = (r.head + 1) % len(r.buf)
				r.count--
				r.dropped++
			}
		}
		r.buf[(r.head+r.count)%len(r.buf)] = rep
		r.count++
		accepted++
		r.notEmpty.Signal()
	}
	return accepted
}

// grow doubles a full buffer (never past limit), moving the queue to
// the front of the new one.
func (r *ring) grow() {
	buf := make([]dataplane.Report, min(2*len(r.buf), r.limit))
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// drainUpTo blocks until at least one report is queued (or the ring is
// closed and empty, returning nil) and then dequeues up to max reports
// into dst.
func (r *ring) drainUpTo(max int, dst []dataplane.Report) []dataplane.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.count == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.count == 0 {
		return nil // closed and drained
	}
	n := r.count
	if n > max {
		n = max
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, r.buf[r.head])
		r.buf[r.head] = dataplane.Report{} // release references
		r.head = (r.head + 1) % len(r.buf)
	}
	r.count -= n
	r.overflowing = false // space freed: the next full ring is a new burst
	r.notFull.Broadcast()
	return dst
}

// close wakes all waiters; pending reports remain drainable.
func (r *ring) close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}

func (r *ring) stats() (dropped, overflows uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped, r.overflows
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}
