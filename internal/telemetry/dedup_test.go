package telemetry

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
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

// dedupModel is the reference alert dedup: a map keyed by (window, query,
// key mask, masked key) that forgets the least recently touched window
// once more than keepAlertWindows windows are held.
type dedupModel struct {
	seen  map[dedupModelKey]bool
	touch map[uint64]uint64 // window → clock at its last report
	clock uint64
}

type dedupModelKey struct {
	qid  int
	mask fields.Mask
	w    uint64
	key  string
}

func (m *dedupModel) fresh(r *dataplane.Report, w uint64) bool {
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
	k := dedupModelKey{r.QueryID, r.KeyMask, w, string(r.KeyMask.Bytes(&r.Keys, nil))}
	if m.seen[k] {
		return false
	}
	m.seen[k] = true
	return true
}

// dedupMasks draws the key masks of queries 1 to qids: one to three
// fields each, and for two queries in three a second mask — the same
// fields with one of them under a prefix pattern, or other fields.
func dedupMasks(rng *rand.Rand, qids int) [][]fields.Mask {
	pool := []fields.ID{fields.SrcIP, fields.DstIP, fields.Proto, fields.SrcPort, fields.DstPort}
	masks := make([][]fields.Mask, qids)
	for q := range masks {
		ids := slices.Clone(pool)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		m := fields.Keep(ids[:1+rng.Intn(3)]...)
		masks[q] = []fields.Mask{m}
		switch rng.Intn(3) {
		case 1:
			masks[q] = append(masks[q], m.WithBits(ids[0], fields.Prefix(ids[0], ids[0].Width()/2)))
		case 2:
			masks[q] = append(masks[q], fields.Keep(ids[3+rng.Intn(2)]))
		}
	}
	return masks
}

// dedupStream draws seeded report batches of queries 1 to qids under
// dedupMasks' masks: windows of window ns moving forward, late and
// out-of-order reports (some past the keepAlertWindows held) and one
// backwards jump of the clock halfway. A field's value varies in its top
// and bottom bits, so a prefix pattern both merges and separates values,
// and two masks often leave the same bytes. States number the reports
// from 1.
func dedupStream(rng *rand.Rand, qids, batches int, window uint64) [][]dataplane.Report {
	masks := dedupMasks(rng, qids)
	base, serial := uint64(1000), uint64(0)
	out := make([][]dataplane.Report, batches)
	for b := range out {
		if b == batches/2 {
			base -= 300 // the clock jumps back
		}
		base += uint64(rng.Intn(3))
		rs := make([]dataplane.Report, 1+rng.Intn(40))
		for i := range rs {
			w := base
			if rng.Intn(5) == 0 {
				w -= uint64(rng.Intn(100)) // late: some past the 64 held
			}
			qid := 1 + rng.Intn(qids)
			m := masks[qid-1][rng.Intn(len(masks[qid-1]))]
			serial++
			rs[i] = dataplane.Report{QueryID: qid, TS: w*window + uint64(rng.Intn(int(window))), State: serial, KeyMask: m}
			for _, id := range m.Fields() {
				rs[i].Keys.Set(id, uint64(rng.Intn(3))<<(id.Width()-2)|uint64(rng.Intn(3)))
			}
		}
		out[b] = rs
	}
	return out
}

// states lists the reports' States.
func states(rs []dataplane.Report) []uint64 {
	var out []uint64
	for _, r := range rs {
		out = append(out, r.State)
	}
	return out
}

// TestAlertDedupMatchesModel: seeded random batches — four queries with
// one or two masks of one to three fields each, windows moving forward
// with late and out-of-order reports and one backwards jump — alert or
// are suppressed report for report as the map reference says, and the
// resident key count is the reference's.
func TestAlertDedupMatchesModel(t *testing.T) {
	const window = 100 // ns
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			stream := dedupStream(rand.New(rand.NewSource(seed)), 4, 300, window)
			s := NewService(ServiceConfig{Window: window})
			defer s.Close()
			a := s.registerAgent("s1")
			m := &dedupModel{seen: map[dedupModelKey]bool{}, touch: map[uint64]uint64{}}
			var dups uint64
			for b, rs := range stream {
				var want []uint64
				for i := range rs {
					if m.fresh(&rs[i], rs[i].TS/window) {
						want = append(want, rs[i].State)
					} else {
						dups++
					}
				}
				s.ingestReports(a, rs)
				if got := states(s.DrainReports()); !slices.Equal(got, want) {
					t.Fatalf("batch %d: alerted %v, reference alerts %v", b, got, want)
				}
				if st := s.Stats(); st.DuplicateAlerts != dups || st.DedupKeys != len(m.seen) {
					t.Fatalf("batch %d: %d duplicates, %d keys; reference %d, %d", b, st.DuplicateAlerts, st.DedupKeys, dups, len(m.seen))
				}
			}
		})
	}

	// Collisions: thousands of distinct entries, many probing past a slot
	// another entry took, all alert across the table's doublings, and each
	// is then a duplicate of itself.
	t.Run("collision", func(t *testing.T) {
		aw := &alertWindow{seed: maphash.MakeSeed(), slots: make([]uint32, minAlertSlots)}
		var ks [][]byte
		for i := 0; i < 3000; i++ {
			// A uvarint ends itself, so no two of these are equal.
			k := binary.AppendUvarint([]byte{0}, uint64(i))
			k = append(k, make([]byte, i%3)...)
			k[0] = byte(len(k) - 1)
			ks = append(ks, k)
		}
		for pass, fresh := range []bool{true, false} {
			for _, k := range ks {
				if got := aw.add(k); got != fresh {
					t.Fatalf("pass %d: add(%v) = %v, want %v", pass, k, got, fresh)
				}
			}
		}
		mask := uint64(len(aw.slots) - 1)
		displaced := 0
		for i, off := range aw.slots {
			if off != 0 {
				e := aw.keys[off-1:]
				if maphash.Bytes(aw.seed, e[:1+int(e[0])])&mask != uint64(i) {
					displaced++
				}
			}
		}
		if aw.n != len(ks) || 4*aw.n > 3*len(aw.slots) || displaced == 0 {
			t.Fatalf("%d entries in %d slots, %d displaced from their hash's slot", aw.n, len(aw.slots), displaced)
		}
	})
}

// TestAlertDedupKeepsMasksApart: reports of one query under two key masks
// whose masked bytes coincide are two alerts: {sip} = 10.0.0.1 beside
// {dip} = 10.0.0.1, and sip/24 = 10.0.0.0 beside sip = 10.0.0.0. An entry
// of the query ID and the masked bytes alone made the second of each a
// duplicate.
func TestAlertDedupKeepsMasksApart(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100 * time.Millisecond})
	defer s.Close()
	a := s.registerAgent("s1")
	rep := func(state uint64, m fields.Mask, id fields.ID, v uint64) dataplane.Report {
		r := dataplane.Report{QueryID: 1, TS: 5, State: state, KeyMask: m}
		r.Keys.Set(id, v)
		return r
	}
	src, dst := fields.Keep(fields.SrcIP), fields.Keep(fields.DstIP)
	src24 := fields.Keep().WithBits(fields.SrcIP, fields.Prefix(fields.SrcIP, 24))
	s.ingestReports(a, []dataplane.Report{
		rep(1, src, fields.SrcIP, 0x0A000001),
		rep(2, dst, fields.DstIP, 0x0A000001),
		rep(3, src, fields.SrcIP, 0x0A000000),
		rep(4, src24, fields.SrcIP, 0x0A000000),
		rep(5, src24, fields.SrcIP, 0x0A0000FF), // 10.0.0.0/24 again
	})
	if got := states(s.DrainReports()); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("alerted %v, want [1 2 3 4]", got)
	}
	if st := s.Stats(); st.DedupKeys != 4 || st.DuplicateAlerts != 1 {
		t.Fatalf("%d keys, %d duplicates; want 4, 1", st.DedupKeys, st.DuplicateAlerts)
	}
}

// TestAlertDedupBytesPerKey: a window of 1024 single-field keys holds at
// most 16.75 bytes a key — its 8 KB table, and an arena at most a
// quarter over its 7 KB of entries; measured 15.9 — and 64 such windows
// at most 1.1 MB, by DedupBytes and by the heap alike (measured 1.04 and
// 0.98 MB). An arena that grew by append's doubling held 17.25 bytes a
// key, 1.13 MB for the 64; Go maps of hash to arena offset held ~57
// bytes a key, 3.6 MB for the 64.
func TestAlertDedupBytesPerKey(t *testing.T) {
	const keys, budget = 1024, 1.1e6
	s := NewService(ServiceConfig{Window: 100})
	defer s.Close()
	a := s.registerAgent("s1")
	batch := alertBatch(keys)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	s.ingestReports(a, batch)
	st := s.Stats()
	perKey := float64(st.DedupBytes) / float64(st.DedupKeys)
	t.Logf("one window: %d keys in %d bytes, %.1f a key", st.DedupKeys, st.DedupBytes, perKey)
	if st.DedupKeys != keys || perKey > 16.75 {
		t.Fatalf("one window: %d keys at %.2f bytes a key, want %d at most 16.75", st.DedupKeys, perKey, keys)
	}
	for w := uint64(1); w < keepAlertWindows; w++ {
		for i := range batch {
			batch[i].TS = w * 100
		}
		s.ingestReports(a, batch)
	}
	s.DrainReports()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) - float64(before)
	st = s.Stats()
	t.Logf("%d windows: %d keys in %d bytes; the heap grew %.0f bytes", keepAlertWindows, st.DedupKeys, st.DedupBytes, heap)
	if st.DedupKeys != keepAlertWindows*keys || st.DedupBytes > budget || heap > budget {
		t.Fatalf("%d windows: %d keys in %d bytes, heap +%.0f; want %d keys within %.0f bytes",
			keepAlertWindows, st.DedupKeys, st.DedupBytes, heap, keepAlertWindows*keys, budget)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(batch)
}

// TestNewAlertSetStartsAtLastSize: a set made for a new window starts
// with room for what the window before it held, so filling it with as
// many keys allocates the set, its table and its arena and nothing more.
// A set that grew its table and arena a step at a time made 24 for these
// 1024 keys.
func TestNewAlertSetStartsAtLastSize(t *testing.T) {
	s := NewService(ServiceConfig{Window: 100})
	defer s.Close()
	batch := alertBatch(1024)
	w := uint64(0)
	fill := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		aw := s.alertWindowLocked(w)
		for i := range batch {
			if !s.freshAlertLocked(aw, &batch[i]) {
				t.Fatalf("window %d, report %d: not fresh", w, i)
			}
		}
		w++
	}
	fill()
	// s.alerts grows beside the sets now and then: at most one more.
	if n := testing.AllocsPerRun(20, fill); n > 4 || w >= keepAlertWindows {
		t.Fatalf("a new window's set of %d keys allocates %.0f times, want at most 4", len(batch), n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, last := s.alerts[0], s.alerts[len(s.alerts)-1]
	if len(last.slots) != len(first.slots) || cap(last.keys) != len(first.keys) {
		t.Fatalf("the last set holds %d slots and %d arena bytes, want %d and %d",
			len(last.slots), cap(last.keys), len(first.slots), len(first.keys))
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
