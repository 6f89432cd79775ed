package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
)

// TestDuplicateReportsDoNotAllocate: deduplication looks a report up by
// its key bytes serialised into a buffer the service keeps, so a report
// already seen — every second one when two switches watch the same
// victims — costs no allocation. Once keepAlertWindows windows are held,
// a new window recycles the least recently touched set in place, so a
// batch of new keys costs none either.
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

	// Warm up past keepAlertWindows windows, each with the batch's keys,
	// then time the dedup step alone: a fresh window's worth of new alerts.
	w := uint64(0)
	for ; w <= keepAlertWindows+1; w++ {
		for i := range batch {
			batch[i].TS = w * uint64(100*time.Millisecond)
		}
		s.ingestReports(a, batch)
	}
	if st := s.Stats(); st.DedupKeys != keepAlertWindows*len(batch) {
		t.Fatalf("after warm-up: %d keys, want %d windows of %d", st.DedupKeys, keepAlertWindows, len(batch))
	}
	n := testing.AllocsPerRun(20, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		w++
		aw := s.alertWindowLocked(w)
		for i := range batch {
			if !s.freshAlertLocked(aw, &batch[i]) {
				t.Fatalf("report %d is a duplicate in the new window %d", i, w)
			}
		}
	})
	if n != 0 {
		t.Fatalf("a batch of %d new alerts in a recycled window allocates %.0f times", len(batch), n)
	}
}

// alertBatch is n reports of distinct keys of query 1, their States
// numbered from 1.
func alertBatch(n int) []dataplane.Report {
	batch := make([]dataplane.Report, n)
	for i := range batch {
		batch[i] = dataplane.Report{QueryID: 1, State: uint64(i + 1), KeyMask: fields.Keep(fields.DstIP)}
		batch[i].Keys.Set(fields.DstIP, uint64(0x0A000000+i))
	}
	return batch
}

// heldWindows ingests batch in windows 0 to keepAlertWindows, one each,
// so that every later window recycles a dedup set sized for it, and
// returns the next window's ingest.
func heldWindows(s *Service, a *agentInfo, batch []dataplane.Report) (ingest func()) {
	w := uint64(0)
	ingest = func() {
		for i := range batch {
			batch[i].TS = w * uint64(s.cfg.Window)
		}
		w++
		s.ingestReports(a, batch)
	}
	for w <= keepAlertWindows {
		ingest()
	}
	return ingest
}

// TestFreshAlertsDoNotAllocate: a batch of new alerts, each published to
// the subscriber as it is found and kept for DrainReports in a pending
// slice with room, allocates nothing. Measured with a per-batch event
// slice: 7 allocations a batch of 64.
func TestFreshAlertsDoNotAllocate(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	events, cancel := s.Subscribe(4096)
	defer cancel()
	batch := alertBatch(64)
	ingest := heldWindows(s, a, batch)
	s.DrainReports() // pending restarts at what this drained: room for 65 batches
	for len(events) > 0 {
		<-events
	}
	dropped := s.Stats().SubscriberDrops // the warm-up's past the buffer
	ingest()
	const runs = 20
	if n := testing.AllocsPerRun(runs, ingest); n != 0 {
		t.Fatalf("a batch of %d new alerts allocates %.2f times", len(batch), n)
	}
	if got, want := len(events), (runs+2)*len(batch); got != want || s.Stats().SubscriberDrops != dropped {
		t.Fatalf("the subscriber got %d events (%d more dropped), want %d", got, s.Stats().SubscriberDrops-dropped, want)
	}
}

// TestDrainedAlertsAreTheCallers: the slice DrainReports hands off is
// never written again. The alerts found after it go to a new slice sized
// for as many as were drained, so a drain's worth of them costs one
// allocation; a slice that restarted from nil made 7 for these 64.
func TestDrainedAlertsAreTheCallers(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	batch := alertBatch(64)
	ingest := heldWindows(s, a, batch)
	s.DrainReports()
	ingest()
	n := testing.AllocsPerRun(20, func() {
		held := s.DrainReports()
		before := held[len(held)-1].TS
		ingest()
		if len(held) != len(batch) || held[len(held)-1].TS != before || held[0].State != 1 {
			t.Fatalf("alerts after the drain changed the drained slice")
		}
	})
	if n != 1 {
		t.Fatalf("a drain's worth of alerts allocates %.2f times, want 1", n)
	}
}

// TestFutureWindowKeepsCurrentDedup: one report stamped far ahead — a
// skewed agent clock — takes one window's set and nothing else, so the
// current window still suppresses another switch's copy of an alert
// however many keys it goes on to collect.
func TestFutureWindowKeepsCurrentDedup(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	windowNs := uint64(100 * time.Millisecond)
	rep := func(w, key uint64) dataplane.Report {
		r := dataplane.Report{QueryID: 1, TS: w * windowNs, KeyMask: fields.Keep(fields.DstIP)}
		r.Keys.Set(fields.DstIP, key)
		return r
	}
	s.ingestReports(a, []dataplane.Report{rep(100, 0)})
	s.ingestReports(a, []dataplane.Report{rep(1100, 1)})
	batch := make([]dataplane.Report, 0, 100)
	for k := uint64(2); k <= 10001; k++ {
		if batch = append(batch, rep(100, k)); len(batch) == cap(batch) {
			s.ingestReports(a, batch)
			batch = batch[:0]
		}
	}
	before := s.Stats().DuplicateAlerts
	s.ingestReports(a, []dataplane.Report{rep(100, 0)})
	if st := s.Stats(); st.DuplicateAlerts != before+1 {
		t.Fatalf("key 0 at window 100 re-alerted after a report at window 1100 (%d keys resident)", st.DedupKeys)
	}
}

// dedupModel is the reference alert dedup: a map keyed by (query, window,
// masked key) that forgets the least recently touched window once more
// than keepAlertWindows windows are held.
type dedupModel struct {
	seen  map[dedupModelKey]bool
	touch map[uint64]uint64 // window → clock at its last report
	clock uint64
}

type dedupModelKey struct {
	qid int
	w   uint64
	key string
}

func (m *dedupModel) fresh(qid int, w uint64, key string) bool {
	m.clock++
	if _, ok := m.touch[w]; !ok && len(m.touch) == keepAlertWindows {
		var lru uint64
		oldest := ^uint64(0)
		for win, c := range m.touch {
			if c < oldest {
				lru, oldest = win, c
			}
		}
		delete(m.touch, lru)
		for k := range m.seen {
			if k.w == lru {
				delete(m.seen, k)
			}
		}
	}
	m.touch[w] = m.clock
	k := dedupModelKey{qid, w, key}
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	return true
}

// TestAlertDedupMatchesModel: seeded random batches — four queries with
// one to three masked fields each, windows moving forward with late and
// out-of-order reports and one backwards jump — alert or are suppressed
// report for report as the map reference says, and the resident key
// count is the reference's.
func TestAlertDedupMatchesModel(t *testing.T) {
	const window = 100 // ns
	pool := []fields.ID{fields.SrcIP, fields.DstIP, fields.Proto, fields.SrcPort, fields.DstPort}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			masks := map[int]fields.Mask{}
			for qid := 1; qid <= 4; qid++ {
				ids := slices.Clone(pool)
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				masks[qid] = fields.Keep(ids[:1+rng.Intn(3)]...)
			}
			s := NewService(ServiceConfig{Window: window})
			defer s.Close()
			a := s.registerAgent("s1")
			m := &dedupModel{seen: map[dedupModelKey]bool{}, touch: map[uint64]uint64{}}
			base, serial := uint64(1000), uint64(0)
			var dups uint64
			const batches = 300
			for b := 0; b < batches; b++ {
				if b == batches/2 {
					base -= 300 // the clock jumps back
				}
				base += uint64(rng.Intn(3))
				rs := make([]dataplane.Report, 1+rng.Intn(40))
				var want []uint64
				for i := range rs {
					w := base
					if rng.Intn(5) == 0 {
						w -= uint64(rng.Intn(100)) // late: some past the 64 held
					}
					qid := 1 + rng.Intn(4)
					serial++
					r := dataplane.Report{QueryID: qid, TS: w*window + uint64(rng.Intn(window)), State: serial, KeyMask: masks[qid]}
					for _, id := range masks[qid].Fields() {
						r.Keys.Set(id, uint64(rng.Intn(6)))
					}
					rs[i] = r
					if m.fresh(qid, w, string(r.KeyMask.Bytes(&r.Keys, nil))) {
						want = append(want, serial)
					} else {
						dups++
					}
				}
				s.ingestReports(a, rs)
				var got []uint64
				for _, r := range s.DrainReports() {
					got = append(got, r.State)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("batch %d: alerted %v, reference alerts %v", b, got, want)
				}
				if st := s.Stats(); st.DuplicateAlerts != dups || st.DedupKeys != len(m.seen) {
					t.Fatalf("batch %d: %d duplicates, %d keys; reference %d, %d", b, st.DuplicateAlerts, st.DedupKeys, dups, len(m.seen))
				}
			}
		})
	}

	// Forced collisions: different entries under one hash all alert, and
	// each is then a duplicate of itself.
	t.Run("collision", func(t *testing.T) {
		aw := &alertWindow{slots: map[uint64]uint32{}}
		x, y, z := []byte{3, 1, 2, 3}, []byte{3, 1, 2, 4}, []byte{1, 9}
		for _, c := range []struct {
			h     uint64
			k     []byte
			fresh bool
		}{
			{7, x, true}, {7, y, true}, {7, x, false}, {7, y, false},
			{8, z, true}, {8, z, false}, {7, y, false},
		} {
			if got := aw.add(c.h, c.k); got != c.fresh {
				t.Fatalf("add(%d, %v) = %v, want %v", c.h, c.k, got, c.fresh)
			}
		}
	})
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
