package telemetry

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
)

// TestDuplicateReportsDoNotAllocate: deduplication looks a report up by
// its key bytes serialised into a buffer the service keeps, so a report
// already seen — every second one when two switches watch the same
// victims — costs no allocation, and a new one only its map key.
func TestDuplicateReportsDoNotAllocate(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	batch := make([]dataplane.Report, 64)
	for i := range batch {
		batch[i] = dataplane.Report{QueryID: 1 + i%3, TS: 5, KeyMask: fields.Keep(fields.DstIP, fields.DstPort)}
		batch[i].Keys.Set(fields.DstIP, uint64(0x0A000000+i))
		batch[i].Keys.Set(fields.DstPort, 443)
	}
	s.ingestReports(a, batch)
	if st := s.Stats(); st.DedupKeys != len(batch) || st.DuplicateAlerts != 0 {
		t.Fatalf("first sight: %d keys, %d duplicates", st.DedupKeys, st.DuplicateAlerts)
	}
	if n := testing.AllocsPerRun(20, func() { s.ingestReports(a, batch) }); n != 0 {
		t.Fatalf("a batch of %d duplicate reports allocates %.0f times", len(batch), n)
	}
	if st := s.Stats(); st.DedupKeys != len(batch) || st.DuplicateAlerts != 21*uint64(len(batch)) {
		t.Fatalf("after the duplicates: %d keys, %d duplicates", st.DedupKeys, st.DuplicateAlerts)
	}
}

// TestPendingAlertsAreBounded: a service nobody drains — newton-analyzer
// only subscribes — keeps the newest maxPending deduplicated alerts and
// counts the ones it let go; it does not grow by a report per alert for
// as long as it runs.
func TestPendingAlertsAreBounded(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	const extra = 1000
	batch := make([]dataplane.Report, 0, 500)
	for i := 0; i < maxPending+extra; i++ {
		r := dataplane.Report{QueryID: 1, TS: 5, State: uint64(i), KeyMask: fields.Keep(fields.DstIP)}
		r.Keys.Set(fields.DstIP, uint64(i))
		if batch = append(batch, r); len(batch) == cap(batch) || i == maxPending+extra-1 {
			s.ingestReports(a, batch)
			batch = batch[:0]
		}
	}
	if st := s.Stats(); st.PendingDropped != extra || st.DuplicateAlerts != 0 {
		t.Fatalf("PendingDropped = %d (%d duplicates), want %d", st.PendingDropped, st.DuplicateAlerts, extra)
	}
	got := s.DrainReports()
	if len(got) != maxPending {
		t.Fatalf("drained %d alerts, want the newest %d", len(got), maxPending)
	}
	for i, r := range got {
		if r.State != uint64(extra+i) {
			t.Fatalf("drained[%d] is alert %d, want %d: not the newest in arrival order", i, r.State, extra+i)
		}
	}
	if more := s.DrainReports(); len(more) != 0 {
		t.Fatalf("second drain returned %d alerts", len(more))
	}
}
