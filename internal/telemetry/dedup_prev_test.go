package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
)

// prevAlertWindow is the dedup set the compact one replaced, kept as its
// reference: a Go map from an entry's hash to the entry's offset in an
// arena. A hash taken by a different entry probes the next one.
type prevAlertWindow struct {
	w, touch uint64
	slots    map[uint64]uint32
	keys     []byte
}

func (aw *prevAlertWindow) add(h uint64, k []byte) bool {
	for ; ; h++ {
		off, ok := aw.slots[h]
		if !ok {
			aw.slots[h] = uint32(len(aw.keys))
			aw.keys = append(aw.keys, k...)
			return true
		}
		if e := aw.keys[off:]; bytes.Equal(e[:1+int(e[0])], k) {
			return false
		}
	}
}

// prevDedup is the service's dedup as it was around prevAlertWindow: at
// most keepAlertWindows sets, the least recently touched one recycled in
// place, and an entry of a length byte, the query ID in 8 bytes and the
// masked key at 8 bytes a field. The one deliberate change is that the
// entry also carries the key mask (8 bytes a field of it), as the
// compact entry does.
type prevDedup struct {
	seed    maphash.Seed
	alerts  []*prevAlertWindow
	touches uint64
	buf     []byte
	dups    uint64
}

func (d *prevDedup) window(w uint64) *prevAlertWindow {
	d.touches++
	var lru *prevAlertWindow
	for _, aw := range d.alerts {
		if aw.w == w {
			aw.touch = d.touches
			return aw
		}
		if lru == nil || aw.touch < lru.touch {
			lru = aw
		}
	}
	if len(d.alerts) < keepAlertWindows {
		lru = &prevAlertWindow{slots: map[uint64]uint32{}}
		d.alerts = append(d.alerts, lru)
	} else {
		clear(lru.slots)
		lru.keys = lru.keys[:0]
	}
	lru.w, lru.touch = w, d.touches
	return lru
}

func (d *prevDedup) fresh(r *dataplane.Report, w uint64) bool {
	aw := d.window(w)
	k := binary.BigEndian.AppendUint64(append(d.buf[:0], 0), uint64(r.QueryID))
	k = r.KeyMask.Bytes(&r.Keys, k)
	for _, m := range r.KeyMask {
		k = binary.BigEndian.AppendUint64(k, m)
	}
	k[0] = byte(len(k) - 1)
	d.buf = k
	if aw.add(maphash.Bytes(d.seed, k), k) {
		return true
	}
	d.dups++
	return false
}

func (d *prevDedup) keys() (n int) {
	for _, aw := range d.alerts {
		n += len(aw.slots)
	}
	return n
}

// TestAlertDedupMatchesPrevious holds the compact sets to the map-based
// ones they replaced: over seeded streams of 24 queries with up to two
// masks each, hundreds of windows (every set recycled many times), late
// reports and a clock that jumps back, every report is fresh or a
// duplicate as the reference says, and the resident keys and duplicate
// count are the reference's. "queries" puts 300 queries, two in three
// with two masks, in one window, so most entries spell their query ID in
// two bytes.
func TestAlertDedupMatchesPrevious(t *testing.T) {
	const window = 100 // ns
	check := func(t *testing.T, stream [][]dataplane.Report) {
		s := NewService(ServiceConfig{Window: window})
		defer s.Close()
		a := s.registerAgent("s1")
		prev := &prevDedup{seed: maphash.MakeSeed()}
		for b, rs := range stream {
			var want []uint64
			for i := range rs {
				if prev.fresh(&rs[i], rs[i].TS/window) {
					want = append(want, rs[i].State)
				}
			}
			s.ingestReports(a, rs)
			if got := states(s.DrainReports()); !slices.Equal(got, want) {
				t.Fatalf("batch %d: alerted %v, the map sets alert %v", b, got, want)
			}
			if st := s.Stats(); st.DuplicateAlerts != prev.dups || st.DedupKeys != prev.keys() {
				t.Fatalf("batch %d: %d duplicates, %d keys; the map sets %d, %d", b, st.DuplicateAlerts, st.DedupKeys, prev.dups, prev.keys())
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			check(t, dedupStream(rand.New(rand.NewSource(seed)), 24, 600, window))
		})
	}
	t.Run("queries", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		masks := dedupMasks(rng, 300)
		var rs []dataplane.Report
		for qid := 1; qid <= len(masks); qid++ {
			for _, m := range masks[qid-1] {
				for _, id := range m.Fields() {
					r := dataplane.Report{QueryID: qid, KeyMask: m}
					r.Keys.Set(id, uint64(rng.Intn(3))<<(id.Width()-2))
					rs = append(rs, r, r)
				}
			}
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		for i := range rs {
			rs[i].State = uint64(i + 1)
		}
		check(t, [][]dataplane.Report{rs[:len(rs)/2], rs[len(rs)/2:]})
	})
}

// BenchmarkAlertDedup: one op is a fresh window of 1024 single-field
// keys, in a set recycled from the least recently touched of the
// keepAlertWindows held, then the window's duplicate pass over the same
// keys. It reports the set's bytes a key and the time a report.
func BenchmarkAlertDedup(b *testing.B) {
	s := NewService(ServiceConfig{Window: 100})
	defer s.Close()
	batch := alertBatch(1024)
	w := uint64(0)
	pass := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		aw := s.alertWindowLocked(w)
		for _, fresh := range []bool{true, false} {
			for i := range batch {
				if s.freshAlertLocked(aw, &batch[i]) != fresh {
					b.Fatalf("window %d, report %d: fresh is %v", w, i, !fresh)
				}
			}
		}
		w++
	}
	for w <= keepAlertWindows {
		pass()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.DedupBytes)/float64(st.DedupKeys), "B/key")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*len(batch)*b.N), "ns/report")
}
