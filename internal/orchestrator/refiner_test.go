package orchestrator

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/telemetry"
)

// refFleet is a RefineFleet whose Converge grants each query its width
// cap, optionally clipped by grantMax (a full planner's capacity
// pressure in one knob).
type refFleet struct {
	intents   []Intent
	deployed  map[string]QueryPlan
	qids      map[string]int
	caps      map[string]uint32
	grantMax  uint32 // 0 = grant whatever is bid
	converges int
	bids      []uint32 // every width cap set before a converge
}

func (f *refFleet) Intents() []Intent { return f.intents }
func (f *refFleet) Deployed() map[string]QueryPlan {
	out := map[string]QueryPlan{}
	for n, p := range f.deployed {
		out[n] = p
	}
	return out
}
func (f *refFleet) QID(name string) int { return f.qids[name] }
func (f *refFleet) SetWidthCap(name string, w uint32) {
	if w == 0 {
		delete(f.caps, name)
		return
	}
	f.caps[name] = w
	f.bids = append(f.bids, w)
}
func (f *refFleet) Converge() (*Plan, Diff, error) {
	f.converges++
	for n, cap := range f.caps {
		p := f.deployed[n]
		granted := cap
		if f.grantMax > 0 && granted > f.grantMax {
			granted = f.grantMax
		}
		p.Width = granted
		f.deployed[n] = p
	}
	return &Plan{}, Diff{}, nil
}

// fakeSource replays a scripted accuracy estimate per settled epoch.
type fakeSource struct {
	epoch uint32
	qa    telemetry.QueryAccuracy
}

func (s *fakeSource) LatestSettledEpoch(qid int) (uint32, bool) { return s.epoch, s.epoch > 0 }
func (s *fakeSource) ObservedAccuracy(qid int, epoch uint32, scale uint64) (telemetry.QueryAccuracy, bool) {
	qa := s.qa
	qa.Epoch = epoch
	return qa, true
}

// qaFor builds the estimate a width-w Count-Min over an n-packet stream
// yields at decision scale.
func qaFor(w uint32, n, scale uint64) telemetry.QueryAccuracy {
	return telemetry.QueryAccuracy{
		StreamTotal: n, Scale: scale, Width: w, CMSRows: 3,
		AbsErr: sketch.CMSAbsError(w, n),
		RelErr: sketch.CMSAbsError(w, n) / float64(scale),
	}
}

// refinerRig wires a one-query fake fleet at the given starting width.
func refinerRig(width uint32) (*refFleet, *fakeSource) {
	q := query.Q1(50) // threshold 50: the decision scale
	fleet := &refFleet{
		intents: []Intent{{
			Query: q, MinWidth: 256, MaxWidth: 8192,
			Accuracy: query.Accuracy{MaxRelErr: 0.25},
		}},
		deployed: map[string]QueryPlan{q.Name: {Width: width}},
		qids:     map[string]int{q.Name: 7},
		caps:     map[string]uint32{},
	}
	return fleet, &fakeSource{}
}

// tick advances the source one settled epoch with the estimate the
// CURRENT deployed width yields over an n-packet stream, then steps.
func tick(t *testing.T, r *Refiner, fleet *refFleet, src *fakeSource, n uint64) StepReport {
	t.Helper()
	src.epoch++
	src.qa = qaFor(fleet.deployed[fleet.intents[0].Query.Name].Width, n, 50)
	rep, err := r.Step()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRefinerWidensFastOnSustainedOverrun: two settled epochs out of
// band jump the query straight to the rung the measured stream needs —
// not one rung at a time — and the cooldown then holds resizes off
// while the fresh sketch refills.
func TestRefinerWidensFastOnSustainedOverrun(t *testing.T) {
	fleet, src := refinerRig(256)
	r := NewRefiner(fleet, src, RefinerConfig{})
	name := fleet.intents[0].Query.Name

	// Surge: 12k packets/epoch. Width 256 admits e*12000/256/50 ≈ 2.55.
	if rep := tick(t, r, fleet, src, 12000); len(rep.Events) != 0 {
		t.Fatalf("one bad epoch already resized: %v", rep.Events)
	}
	rep := tick(t, r, fleet, src, 12000)
	if len(rep.Events) != 1 || rep.Events[0].Action != "widen" {
		t.Fatalf("second bad epoch events = %v, want one widen", rep.Events)
	}
	// e·12000/w ≤ 0.25·50 needs w ≥ 2609 → rung 4096, in ONE jump.
	if got := fleet.deployed[name].Width; got != 4096 {
		t.Fatalf("width after widen = %d, want 4096", got)
	}
	if fleet.converges != 1 {
		t.Fatalf("converges = %d, want 1", fleet.converges)
	}
	// Cooldown: the next CooldownEpochs settled epochs change nothing,
	// even though the (stale-width) estimate is still scripted high.
	for i := 0; i < 2; i++ {
		if rep := tick(t, r, fleet, src, 12000); len(rep.Events) != 0 {
			t.Fatalf("cooldown epoch %d acted: %v", i, rep.Events)
		}
	}
	// At 4096 the surge is in band (≈0.16 ≤ 0.25): quiet.
	tick(t, r, fleet, src, 12000)
	st := r.States()[0]
	if !st.InBand || st.Widens != 1 || st.Flaps != 0 {
		t.Fatalf("state = %+v, want in-band, 1 widen, 0 flaps", st)
	}
}

// TestRefinerBurstyTraceZeroFlaps is the satellite-4 hysteresis
// contract: an error trace that alternates in and out of band every
// epoch must produce ZERO resizes — each reversal resets the other
// direction's run counter, so neither threshold is ever reached.
func TestRefinerBurstyTraceZeroFlaps(t *testing.T) {
	fleet, src := refinerRig(1024)
	r := NewRefiner(fleet, src, RefinerConfig{})

	for i := 0; i < 20; i++ {
		var n uint64 = 1000 // in band at 1024, and cheap enough to tempt a narrow
		if i%2 == 0 {
			n = 30000 // out of band at 1024 (≈1.28)
		}
		if rep := tick(t, r, fleet, src, n); len(rep.Events) != 0 {
			t.Fatalf("bursty epoch %d resized: %v", i, rep.Events)
		}
	}
	st := r.States()[0]
	if st.Resizes != 0 || st.Flaps != 0 || fleet.converges != 0 {
		t.Fatalf("bursty trace: resizes=%d flaps=%d converges=%d, want all 0",
			st.Resizes, st.Flaps, fleet.converges)
	}
}

// TestRefinerNarrowsSlowOneRungAtATime: an over-provisioned query needs
// NarrowAfter consecutive comfortable epochs before giving back ONE
// rung, and stops narrowing at the rung whose predicted error would eat
// the safety margin.
func TestRefinerNarrowsSlowOneRungAtATime(t *testing.T) {
	fleet, src := refinerRig(4096)
	r := NewRefiner(fleet, src, RefinerConfig{})
	name := fleet.intents[0].Query.Name

	// Calm: 2000 packets/epoch. At 4096 observed ≈ 0.027; predicted at
	// 2048 ≈ 0.053 ≤ 0.6·0.25 — a clear over-provision. Six epochs
	// before anything moves, then exactly one rung.
	for i := 0; i < 5; i++ {
		if rep := tick(t, r, fleet, src, 2000); len(rep.Events) != 0 {
			t.Fatalf("narrowed after only %d calm epochs: %v", i+1, rep.Events)
		}
	}
	rep := tick(t, r, fleet, src, 2000)
	if len(rep.Events) != 1 || rep.Events[0].Action != "narrow" {
		t.Fatalf("sixth calm epoch events = %v, want one narrow", rep.Events)
	}
	if got := fleet.deployed[name].Width; got != 2048 {
		t.Fatalf("width after narrow = %d, want one rung to 2048", got)
	}
	// Cooldown (2), then six more calm epochs: the next rung.
	for i := 0; i < 8; i++ {
		tick(t, r, fleet, src, 2000)
	}
	if got := fleet.deployed[name].Width; got != 1024 {
		t.Fatalf("width after second narrow cycle = %d, want 1024", got)
	}
	// At 1024 the next rung down (512) predicts e*2000/512/50 ≈ 0.21 >
	// 0.15: the refiner keeps the margin and stops here for good.
	for i := 0; i < 12; i++ {
		tick(t, r, fleet, src, 2000)
	}
	st := r.States()[0]
	if got := fleet.deployed[name].Width; got != 1024 || st.Narrows != 2 {
		t.Fatalf("width=%d narrows=%d after long calm, want floor at 1024 with 2 narrows", got, st.Narrows)
	}
	if st.Flaps != 0 {
		t.Fatalf("flaps = %d, want 0", st.Flaps)
	}
}

// TestRefinerRespectsRejectedRung is the satellite-2 contract: a rung
// the planner refused is remembered — the refiner bids below it instead
// of retry-storming — until RejectHold expires on the injected clock.
func TestRefinerRespectsRejectedRung(t *testing.T) {
	fleet, src := refinerRig(256)
	now := time.Unix(1000, 0)
	r := NewRefiner(fleet, src, RefinerConfig{Clock: func() time.Time { return now }})
	name := fleet.intents[0].Query.Name
	fleet.grantMax = 1024 // the planner degrades anything wider

	// Sustained surge wants 4096; the fleet grants 1024.
	tick(t, r, fleet, src, 12000)
	rep := tick(t, r, fleet, src, 12000)
	var actions []string
	for _, e := range rep.Events {
		actions = append(actions, e.Action)
	}
	if len(actions) != 2 || actions[0] != "reject" || actions[1] != "widen" {
		t.Fatalf("degraded widen events = %v, want [reject widen]", actions)
	}
	if got := fleet.deployed[name].Width; got != 1024 {
		t.Fatalf("width = %d, want granted 1024", got)
	}
	if st := r.States()[0]; st.Rejected != 4096 {
		t.Fatalf("Rejected = %d, want remembered rung 4096", st.Rejected)
	}

	// Still over tolerance at 1024 (≈0.64). Within the hold the refiner
	// must never bid 4096 again — it probes below the rejected rung.
	for i := 0; i < 8; i++ {
		tick(t, r, fleet, src, 12000)
	}
	for _, b := range fleet.bids[1:] {
		if b >= 4096 {
			t.Fatalf("bids %v re-request the rejected rung during the hold", fleet.bids)
		}
	}

	// Hold expires and the fleet has capacity again: the widen lands.
	now = now.Add(61 * time.Second)
	fleet.grantMax = 0
	tick(t, r, fleet, src, 12000)
	tick(t, r, fleet, src, 12000)
	if got := fleet.deployed[name].Width; got != 4096 {
		t.Fatalf("width after hold expiry = %d, want 4096", got)
	}
}

// TestRefinerIgnoresUnsettledEvidence: partial or width-transition
// epochs, and epochs already processed, never advance the state
// machine.
func TestRefinerIgnoresUnsettledEvidence(t *testing.T) {
	fleet, src := refinerRig(256)
	r := NewRefiner(fleet, src, RefinerConfig{})

	src.epoch = 1
	src.qa = qaFor(256, 12000, 50)
	src.qa.Partial = true
	for i := 0; i < 5; i++ {
		rep, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Examined != 0 {
			t.Fatal("partial epoch examined")
		}
	}
	src.qa.Partial = false
	src.qa.Transition = true
	if rep, _ := r.Step(); rep.Examined != 0 {
		t.Fatal("transition epoch examined")
	}
	src.qa.Transition = false
	if rep, _ := r.Step(); rep.Examined != 1 {
		t.Fatal("clean epoch not examined")
	}
	// Same epoch again: already processed.
	if rep, _ := r.Step(); rep.Examined != 0 {
		t.Fatal("stale epoch re-examined")
	}
}

// TestPlanFrugalStartAndWidthCap: an accuracy-enabled intent with no
// refiner decision plans at the ladder floor (memory is earned by
// observed error, not granted up front), and a width cap pins the
// planned width across replans — the satellite-2 floor memory.
func TestPlanFrugalStartAndWidthCap(t *testing.T) {
	f := newFleet(t)
	o := f.orch(t)
	o.SetIntents([]Intent{{
		Query: query.Q1(50), Priority: 1, MinWidth: 256, MaxWidth: 8192,
		Edges: []string{"s1"}, Accuracy: query.Accuracy{MaxRelErr: 0.25},
	}})

	p, _, err := o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Queries[0].Admitted || p.Queries[0].Width != 256 {
		t.Fatalf("frugal start plan = %+v, want admitted at MinWidth 256", p.Queries[0])
	}

	o.SetWidthCap(query.Q1(50).Name, 1024)
	for i := 0; i < 3; i++ { // the cap survives replans: floor memory
		p, _, err = o.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if p.Queries[0].Width != 1024 {
			t.Fatalf("replan %d width = %d, want pinned 1024", i, p.Queries[0].Width)
		}
	}

	o.SetWidthCap(query.Q1(50).Name, 0) // cleared: back to frugal
	p, _, err = o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Queries[0].Width != 256 {
		t.Fatalf("uncapped width = %d, want frugal 256", p.Queries[0].Width)
	}

	// A static intent (no accuracy target) still gets the full ladder.
	o.SetIntents([]Intent{{
		Query: query.Q1(50), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"},
	}})
	p, _, err = o.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.Queries[0].Width != 1024 {
		t.Fatalf("static intent width = %d, want ladder max 1024", p.Queries[0].Width)
	}
}

// TestWithdrawnQueryIsForgotten: the loops' memory follows the intent
// set. Once an intent is withdrawn the refiner stops listing its query
// and the orchestrator drops its width cap, so the same intent submitted
// again starts frugal instead of at its dead predecessor's width.
func TestWithdrawnQueryIsForgotten(t *testing.T) {
	fleet, src := refinerRig(256)
	r := NewRefiner(fleet, src, RefinerConfig{})
	tick(t, r, fleet, src, 12000)
	if got := len(r.States()); got != 1 {
		t.Fatalf("states before withdrawal = %d, want 1", got)
	}
	fleet.intents = nil
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if got := r.States(); len(got) != 0 {
		t.Fatalf("states after withdrawal = %+v, want none", got)
	}

	o := newFleet(t).orch(t)
	intents := []Intent{{
		Query: query.Q1(50), Priority: 1, MinWidth: 256, MaxWidth: 8192,
		Edges: []string{"s1"}, Accuracy: query.Accuracy{MaxRelErr: 0.25},
	}}
	planned := func() uint32 {
		t.Helper()
		p, _, err := o.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p.Queries[0].Width
	}
	o.SetIntents(intents)
	o.SetWidthCap(query.Q1(50).Name, 1024)
	if w := planned(); w != 1024 {
		t.Fatalf("capped width = %d, want 1024", w)
	}
	o.SetIntents(nil)
	o.SetIntents(intents)
	if w := planned(); w != 256 {
		t.Fatalf("re-submitted intent planned at %d, want MinWidth 256", w)
	}
}
