package telemetry_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/telemetry"
)

// svcModel is the reference TestServiceMatchesModel holds Service to: the
// documented per-query rules (DESIGN §8, §9, §15) written the plain way,
// a map per query, per epoch and per bank, nothing reused. It predicts
// every answer the service gives about merged state.
type svcModel struct {
	keep    int
	queries map[int]*modelQuery
	sent    map[string]uint64 // snapshots each switch has delivered

	partialEpochs, dupSnapshots, widthTransitions, geomConflicts uint64
}

type modelQuery struct {
	// expected maps a contributor to its switch's snapshot count when it
	// last named the query (what a learned member ages by).
	expected      map[string]uint64
	pinned        bool
	resizePending bool
	epochs        map[uint32]*modelEpoch
}

type modelEpoch struct {
	transition bool
	delivered  map[string]bool
	banks      map[[3]int]*modelBank // (part, branch, row)
}

type modelBank struct {
	values   []uint64
	switches []string
}

func (m *svcModel) query(qid int) *modelQuery {
	if m.queries[qid] == nil {
		m.queries[qid] = &modelQuery{expected: map[string]uint64{}, epochs: map[uint32]*modelEpoch{}}
	}
	return m.queries[qid]
}

// bounds returns the oldest and newest retained epoch of a query that has one.
func (q *modelQuery) bounds() (oldest, newest uint32) {
	first := true
	for e := range q.epochs {
		if first || e < oldest {
			oldest = e
		}
		if first || e > newest {
			newest = e
		}
		first = false
	}
	return oldest, newest
}

// missing names the expected switches that did not deliver epoch, sorted.
func (q *modelQuery) missing(epoch uint32) []string {
	var out []string
	for sw := range q.expected {
		if e := q.epochs[epoch]; e == nil || !e.delivered[sw] {
			out = append(out, sw)
		}
	}
	sort.Strings(out)
	return out
}

func (m *svcModel) mark(e *modelEpoch) {
	if !e.transition {
		e.transition = true
		m.widthTransitions++
	}
}

// snapshot is one snapshot of sw at epoch: banks sorted by query.
func (m *svcModel) snapshot(sw string, epoch uint32, banks []modules.BankSnapshot) {
	m.sent[sw]++
	replayed := false
	for lo, hi := 0, 0; lo < len(banks); lo = hi {
		qid := banks[lo].QueryID
		for hi = lo; hi < len(banks) && banks[hi].QueryID == qid; hi++ {
		}
		q := m.query(qid)
		if !q.pinned {
			q.expected[sw] = m.sent[sw]
		}
		oldest, newest := q.bounds()
		if len(q.epochs) > 0 && epoch > newest && len(q.missing(newest)) > 0 {
			m.partialEpochs++ // the frontier moves on: the epoch it leaves is judged
		}
		e := q.epochs[epoch]
		if e == nil {
			if len(q.epochs) == m.keep {
				if epoch < oldest {
					continue // older than everything a full ring holds
				}
				delete(q.epochs, oldest)
			}
			e = &modelEpoch{delivered: map[string]bool{}, banks: map[[3]int]*modelBank{}}
			q.epochs[epoch] = e
		}
		if _, newest = q.bounds(); q.resizePending && epoch == newest {
			q.resizePending = false
			m.mark(e)
		}
		if e.delivered[sw] {
			replayed = true
			continue
		}
		e.delivered[sw] = true
		for _, b := range banks[lo:hi] {
			key := [3]int{b.Part, b.Branch, b.Row}
			mb := e.banks[key]
			if mb != nil && len(mb.values) != int(b.Width) {
				m.geomConflicts++ // the later geometry replaces the resident one
				m.mark(e)
				mb = nil
			}
			if mb == nil {
				mb = &modelBank{values: make([]uint64, b.Width)}
				e.banks[key] = mb
			}
			for i, v := range b.Values {
				mb.values[i] += uint64(v)
			}
			mb.switches = append(mb.switches, sw)
		}
	}
	if replayed {
		m.dupSnapshots++
	}
	for qid, q := range m.queries {
		if at, learned := q.expected[sw]; learned && !q.pinned && m.sent[sw]-at >= uint64(m.keep) {
			delete(q.expected, sw)
			if len(q.expected) == 0 {
				delete(m.queries, qid)
			}
		}
	}
}

func (m *svcModel) setExpected(qid int, switches []string) {
	if len(switches) == 0 {
		delete(m.queries, qid)
		return
	}
	q := m.query(qid)
	q.pinned, q.expected = true, map[string]uint64{}
	for _, sw := range switches {
		q.expected[sw] = 0
	}
}

// modelRow is one MergedRows entry, reduced to what the model predicts.
type modelRow struct {
	Width      uint32
	Values     []uint64
	Switches   []string
	Partial    bool
	Missing    []string
	Transition bool
}

// rows predicts MergedRows(qid, 0, epoch): (partition, row) order.
func (m *svcModel) rows(qid int, epoch uint32) []modelRow {
	out := []modelRow{}
	q := m.queries[qid]
	if q == nil || q.epochs[epoch] == nil {
		return out
	}
	e := q.epochs[epoch]
	var keys [][3]int
	for k := range e.banks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
	missing := q.missing(epoch)
	for _, k := range keys {
		b := e.banks[k]
		out = append(out, modelRow{uint32(len(b.values)), b.values, b.switches,
			len(missing) > 0 || e.transition, missing, e.transition})
	}
	return out
}

func (m *svcModel) latestSettled(qid int) (best uint32, ok bool) {
	if q := m.queries[qid]; q != nil {
		for epoch, e := range q.epochs {
			if !e.transition && len(q.missing(epoch)) == 0 && (!ok || epoch > best) {
				best, ok = epoch, true
			}
		}
	}
	return best, ok
}

func (m *svcModel) contributors(qid int) []string {
	out := []string{}
	if q := m.queries[qid]; q != nil {
		for _, e := range q.epochs {
			for sw := range e.delivered {
				if !slices.Contains(out, sw) {
					out = append(out, sw)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestServiceMatchesModel drives a service and the model through the same
// seeded life — three switches exporting random subsets of the banks of
// the queries they host, at epochs that mostly advance and sometimes
// replay or fall far behind, while queries move on and off switches, the
// controller pins, removes and announces resizes, and widths change under
// it — and after every step compares every answer:
// MergedRows at every epoch from 0 past the newest (retained, evicted and
// never seen alike), EpochStatus, LatestSettledEpoch, Contributors and
// the counters.
func TestServiceMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { serviceLife(t, seed, 300) })
	}
}

func serviceLife(t *testing.T, seed int64, steps int) {
	const keep = 3
	rng := rand.New(rand.NewSource(seed))
	svc := telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: keep})
	defer svc.Close()
	m := &svcModel{keep: keep, queries: map[int]*modelQuery{}, sent: map[string]uint64{}}

	switches := []string{"s1", "s2", "s3"}
	exps := map[string]*telemetry.Exporter{}
	last := map[string]uint32{} // the epoch each switch sent last
	for _, sw := range switches {
		exps[sw] = connect(t, svc, sw, telemetry.ExporterConfig{}, nil)
		defer exps[sw].Close()
	}
	// Query 1 has two rows, query 2 three, query 3 two rows in partition 0
	// and one in partition 1.
	layout := map[int][][2]int{1: {{0, 0}, {0, 1}}, 2: {{0, 0}, {0, 1}, {0, 2}}, 3: {{0, 0}, {0, 1}, {1, 0}}}
	width := map[int]uint32{1: 4, 2: 4, 3: 4}
	hosted := map[string][]bool{"s1": {1: true, 2: true, 3: true}, "s2": {1: true, 2: true, 3: false}, "s3": {1: true, 2: false, 3: true}}
	now := uint32(3) // the fleet's epoch

	for step := 0; step < steps; step++ {
		qid := 1 + rng.Intn(3)
		var what string
		switch p := rng.Intn(100); {
		case p < 74:
			sw := switches[rng.Intn(len(switches))]
			epoch := now
			switch r := rng.Intn(10); {
			case r < 3: // the first of a new epoch
				now++
				epoch = now
			case r < 7: // the current epoch, perhaps again
			case r < 8: // late by one
				epoch--
			case r < 9: // whatever it sent last, replayed
				epoch = last[sw]
			default: // a straggler, or a restarted engine counting from zero
				epoch -= min(epoch, uint32(2+rng.Intn(5)))
			}
			last[sw] = epoch
			var banks []modules.BankSnapshot
			for q := 1; q <= 3; q++ {
				for _, pr := range layout[q] {
					if hosted[sw][q] && rng.Intn(10) < 7 {
						b := cmsBank(q, make([]uint32, width[q])...)
						b.Part, b.Row = pr[0], pr[1]
						for i := range b.Values {
							b.Values[i] = uint32(rng.Intn(4))
						}
						banks = append(banks, b)
					}
				}
			}
			if len(banks) == 0 {
				continue
			}
			what = fmt.Sprintf("%s sends epoch %d, %d banks", sw, epoch, len(banks))
			sendSnapshot(t, svc, exps[sw], epoch, banks)
			m.snapshot(sw, epoch, banks)
		case p < 82:
			sw := switches[rng.Intn(len(switches))]
			hosted[sw][qid] = !hosted[sw][qid]
			what = fmt.Sprintf("query %d on %s: %v", qid, sw, hosted[sw][qid])
		case p < 85:
			pin := []string{}
			for _, sw := range switches {
				if rng.Intn(2) == 0 {
					pin = append(pin, sw)
				}
			}
			what = fmt.Sprintf("SetExpected(%d, %v)", qid, pin)
			svc.SetExpected(qid, pin)
			m.setExpected(qid, pin)
		case p < 92:
			what = fmt.Sprintf("SetExpected(%d, nil)", qid)
			svc.SetExpected(qid, nil)
			m.setExpected(qid, nil)
		case p < 96:
			what = fmt.Sprintf("NoteResize(%d)", qid)
			svc.NoteResize(qid)
			m.query(qid).resizePending = true
		default:
			width[qid] = 12 - width[qid] // 4 <-> 8
			what = fmt.Sprintf("query %d now %d wide", qid, width[qid])
		}

		at := fmt.Sprintf("seed %d step %d (%s)", seed, step, what)
		for qid := 1; qid <= 3; qid++ {
			for epoch := uint32(0); epoch <= now+1; epoch++ {
				got := []modelRow{}
				for _, r := range svc.MergedRows(qid, 0, epoch) {
					got = append(got, modelRow{r.Width, r.Values, r.Switches, r.Partial, r.Missing, r.Transition})
				}
				if want := m.rows(qid, epoch); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MergedRows(%d, 0, %d)\n got %+v\nwant %+v", at, qid, epoch, got, want)
				}
				var wantMissing []string
				wantPartial, wantMerged := false, 0
				if q := m.queries[qid]; q != nil {
					wantMissing = q.missing(epoch)
					wantPartial = len(wantMissing) > 0
					if e := q.epochs[epoch]; e != nil {
						wantPartial, wantMerged = wantPartial || e.transition, len(e.delivered)
					}
				}
				partial, missing, merged := svc.EpochStatus(qid, epoch)
				if partial != wantPartial || !reflect.DeepEqual(missing, wantMissing) || merged != wantMerged {
					t.Fatalf("%s: EpochStatus(%d, %d) = %v %v %d, want %v %v %d", at, qid, epoch,
						partial, missing, merged, wantPartial, wantMissing, wantMerged)
				}
			}
			e, ok := svc.LatestSettledEpoch(qid)
			if wantE, wantOK := m.latestSettled(qid); e != wantE || ok != wantOK {
				t.Fatalf("%s: LatestSettledEpoch(%d) = %d %v, want %d %v", at, qid, e, ok, wantE, wantOK)
			}
			if got, want := svc.Contributors(qid), m.contributors(qid); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Contributors(%d) = %v, want %v", at, qid, got, want)
			}
		}
		st := svc.Stats()
		got := []uint64{st.PartialEpochs, st.DuplicateSnapshots, st.WidthTransitions, st.GeometryConflicts, uint64(st.Queries)}
		want := []uint64{m.partialEpochs, m.dupSnapshots, m.widthTransitions, m.geomConflicts, uint64(len(m.queries))}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: partial epochs, duplicate snapshots, width transitions, geometry conflicts, queries\n got %v\nwant %v", at, got, want)
		}
	}
}
