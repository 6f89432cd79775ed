// Package orchestrator is the network-wide deployment pipeline that
// joins the repo's planning islands: resilient placement (§5.2) slices
// each prioritized intent into partitions, per-switch budget-checked
// admission (the §7 scheduling problem; Plan is the repo's one admission
// walk) degrades sketch widths down the accuracy ladder before
// rejecting, and controller.Remote's transactional deploy pushes the
// result to the switch agents — with expected telemetry contributors
// registered so merged epochs carry honest Partial/Missing provenance.
//
// Plan is a pure recompute: it never talks to agents. The Diff it
// returns against the recorded deployment is the wanted state of each
// query that differs; Apply hands each one to controller.Remote, whose
// reconcile contacts only the switches whose share changed, so a
// topology or budget change (switch drained, envelope shrunk) is never
// a full redeploy. newton-ctl surfaces the same split as `plan`
// (inspect) and `apply` (commit).
package orchestrator

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/topology"
)

// Intent is one prioritized monitoring request against the network.
type Intent struct {
	Query    *query.Query
	Priority int // higher admits first

	// MinWidth and MaxWidth bound the per-row register width (accuracy
	// ladder); zero values default like scheduler.WidthLadder.
	MinWidth, MaxWidth uint32

	// Accuracy, when enabled, puts the width under closed-loop control:
	// the intent starts frugal (MinWidth) and the Refiner widens or
	// narrows it — within [MinWidth, MaxWidth] — to track the declared
	// error budget against the observed stream. Disabled intents keep
	// the static ladder-walk provisioning.
	Accuracy query.Accuracy

	// Edges names the switches originating the monitored traffic. Empty
	// means every edge switch of the topology.
	Edges []string
}

// Config describes the fleet the orchestrator plans against. Budget map
// keys are switch names and must match both topology node names and the
// agent names controller.Remote was built with. New copies Budgets: the
// fleet's envelope is fixed for the orchestrator's life.
type Config struct {
	Topo    *topology.Topology
	Budgets map[string]scheduler.Budget

	// StagesPerSwitch is the partition size for cross-switch slicing.
	// Zero derives min(budget stages) - 2: partitions after the first
	// carry a two-stage K/H continuation prefix (modules.SliceProgram),
	// so slicing at the full stage count would produce programs that
	// cannot fit any device.
	StagesPerSwitch int
}

// QueryPlan is the planner's verdict for one intent.
type QueryPlan struct {
	Intent   Intent
	Admitted bool
	Reason   string // why rejected, or how degraded
	Width    uint32 // granted register width
	Stages   int    // compiled logical stage count
	M        int    // partition count (1 in single-switch mode)

	// Single-switch deploys replicate the full program on Targets;
	// otherwise Parts maps each switch name to its partition indices.
	Single  bool
	Targets []string
	Parts   map[string][]int

	// q and programs are what Apply deploys: the private clone of the
	// intent's query that admission compiled, and the admitted rung's
	// programs (the whole program when Single, else the slices Parts
	// indexes). They point into the rung, so a plan allocates nothing
	// for them.
	q        *query.Query
	programs []*modules.Program
}

// Plan is one full recompute over the intent set.
type Plan struct {
	Queries   []QueryPlan
	StagesPer int
}

// Delta is one query whose deployment differs from the plan: Target is
// its wanted state (nil removes it) and QID the deployed qid that state
// replaces (0 installs a new one). controller.Remote works out which
// switches the change contacts.
type Delta struct {
	Query  string
	QID    int
	Target *QueryPlan
}

// Diff is the plan-vs-deployed difference the operator inspects before
// Apply commits it. Deltas are ordered removes, then in-place changes
// that move the width, then other in-place changes, then installs, so
// freed capacity is available to newcomers.
type Diff struct {
	Deltas []Delta
}

// Empty reports whether the deployment already matches the plan.
func (d Diff) Empty() bool { return len(d.Deltas) == 0 }

// String renders each delta's target state for operators.
func (d Diff) String() string {
	if d.Empty() {
		return "no changes: deployment matches plan\n"
	}
	var b strings.Builder
	for _, dl := range d.Deltas {
		verb := "deploy"
		if dl.Target == nil {
			verb = "remove"
		}
		fmt.Fprintf(&b, "%s %s", verb, dl.Query)
		if dl.QID != 0 {
			fmt.Fprintf(&b, " (qid %d)", dl.QID)
		}
		if t := dl.Target; t != nil {
			fmt.Fprintf(&b, " width=%d", t.Width)
			for _, sw := range t.Targets {
				fmt.Fprintf(&b, " %s", sw)
			}
			for _, sw := range sortedKeys(t.Parts) {
				fmt.Fprintf(&b, " %s%v", sw, t.Parts[sw])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deployedState records what Apply committed for one query.
type deployedState struct {
	qid  int
	plan QueryPlan
}

// Orchestrator owns the fleet's intent set and deployment record. All
// public methods are safe for concurrent use: the health monitor
// (health.go) and an operator shell may drive the same instance.
type Orchestrator struct {
	mu       sync.Mutex
	cfg      Config
	remote   *controller.Remote
	intents  []Intent
	drained  map[string]bool
	drains   uint64 // bumped whenever Drain or Undrain changes the drained set
	deployed map[string]*deployedState

	// widthCap is the refiner's per-query provisioning decision: the
	// width the next plan should grant an accuracy-driven intent,
	// clamped into the intent's [MinWidth, MaxWidth]. Absent means the
	// intent is unrefined yet — accuracy-enabled intents then start
	// frugal at MinWidth and grow only on observed error. The cap is
	// persistent floor memory: a narrow survives replans, so a query
	// narrowed for being over-provisioned does not snap back to max on
	// the next converge. It lives as long as the intent: SetIntents drops
	// the cap of a name it no longer lists, so a re-submitted intent
	// starts frugal, not at its dead predecessor's width.
	widthCap map[string]uint32

	// compiled keeps, per intent name, the rungs planning compiled, so a
	// replan of an unchanged intent compiles and slices nothing. Like
	// widthCap it lives as long as the intent.
	compiled map[string]*compiledIntent
	compiler compiler.Compiler // compiles every rung, keeping its scratch storage

	// trackers holds one admission tracker per switch of the fleet, which
	// each plan resets in place; live is a plan's view of them, the
	// switches not drained.
	trackers, live map[string]*scheduler.Tracker
	order          []int // a plan's intent indices in priority order, kept from one plan to the next

	stagesPer int // partition size, resolved once (Config.StagesPerSwitch)
}

// compiledIntent is what planning one intent compiled. It serves a plan
// only while the intent's query is Equal to q, a private clone, so a
// caller who edits a submitted query in place gets a recompile. Its
// programs are never written: Tracker.Fits/Commit/Release read them,
// and Apply hands the admitted rung's to controller.Remote, which
// installs them under the deployment's qid on copies of its own.
//
// Beside the rungs it keeps the intent's width ladder, built from the
// bounds in ladderOf, and its resolved edge switches, built from the
// names in edges (a private copy) at topology version edgesAt. Each is
// built again when what it was built from moves, and never written: a
// rung's assignment is stamped with the edge slice it was built for.
type compiledIntent struct {
	q     *query.Query
	qid   int // the rungs' placeholder qid (placeholderQID)
	rungs []*compiledRung

	ladderOf  [2]uint32 // the MinWidth, MaxWidth ladder was built from
	ladder    []uint32
	ladderErr error

	edges   []string
	edgesAt uint64
	edgeIDs []int // nil until resolved
}

// compiledRung is one width's program and, once a plan partitioned it,
// its slices at the orchestrator's stagesPer. whole holds the program
// alone, so a replica plan hands it on as a slice without allocating.
//
// The rung also keeps what it was last assigned: placement.Place's
// result, stamped with the topology version and edges it was computed
// for, and the assignment over the live fleet, stamped besides with the
// drain generation. A plan whose stamp matches reuses them as they are;
// one whose stamp moved builds new ones. Nothing kept is written after a
// plan hands it out (QueryPlan.Targets and Parts are the assignment's),
// because Deployed, Diff and the deployment record share it.
type compiledRung struct {
	width uint32
	whole [1]*modules.Program
	parts []*modules.Program

	placedFor stamp
	placed    placement.Placement
	m         int
	placeErr  error

	assignedFor stamp
	drains      uint64 // the drain generation assigned was built at
	assigned    assignment

	degradedOf uint32 // the top rung degraded says this rung degrades from
	degraded   string
}

// stamp is what a rung's kept placement or assignment was computed
// from: a topology version and the intent's resolved edge switches. The
// zero stamp holds for nothing, since resolved edges are never empty.
type stamp struct {
	topo  uint64
	edges []int
}

func (s stamp) holds(topo uint64, edges []int) bool {
	return s.edges != nil && s.topo == topo && slices.Equal(s.edges, edges)
}

// assignment is a rung's share of the live fleet: whole replicas on
// targets, else partitions (m of them, parts naming each switch's) and
// the hostings charge admits in order — or why the rung has none.
type assignment struct {
	single  bool
	targets []string
	m       int
	parts   map[string][]int
	hosts   []hosting
	why     string
}

// rung returns the program compiled at width w, compiling it with c on
// first use. A compile error is not kept: the next plan tries again.
func (ci *compiledIntent) rung(c *compiler.Compiler, w uint32) (*compiledRung, error) {
	for _, r := range ci.rungs {
		if r.width == w {
			return r, nil
		}
	}
	opts := compiler.AllOpts()
	opts.QID, opts.Width = ci.qid, w
	p, err := c.Compile(ci.q, opts)
	if err != nil {
		return nil, err
	}
	r := &compiledRung{width: w, whole: [1]*modules.Program{p}}
	ci.rungs = append(ci.rungs, r)
	return r, nil
}

// placeholderQID is the qid an intent's rungs compile under. Admission
// needs none of its own but one per query: the ledger tells partitioned
// programs of different queries apart by qid (one result snapshot rides
// a packet, so two of them may not match the same packets on a switch),
// and every intent names its own query. Apply deploys under the qid the
// controller assigns. It is a function of the name, so two orchestrators
// given the same intents plan the same programs.
func placeholderQID(name string) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() >> 1)
}

// widthLadder is scheduler.WidthLadder over the intent's bounds, built
// when the bounds move.
func (ci *compiledIntent) widthLadder(minW, maxW uint32) ([]uint32, error) {
	if ci.ladder == nil && ci.ladderErr == nil || ci.ladderOf != [2]uint32{minW, maxW} {
		ci.ladderOf = [2]uint32{minW, maxW}
		ci.ladder, ci.ladderErr = scheduler.WidthLadder(minW, maxW)
	}
	return ci.ladder, ci.ladderErr
}

// resolveEdges maps intent edge names to topology IDs (all edge
// switches when empty), resolved again when the names or the topology
// move. A failed resolution is not kept.
func (ci *compiledIntent) resolveEdges(topo *topology.Topology, names []string) ([]int, error) {
	if ci.edgeIDs != nil && ci.edgesAt == topo.Version() && slices.Equal(ci.edges, names) {
		return ci.edgeIDs, nil
	}
	ids, err := resolveEdges(topo, names)
	if err != nil {
		return nil, err
	}
	ci.edges, ci.edgesAt, ci.edgeIDs = slices.Clone(names), topo.Version(), ids
	return ids, nil
}

// New builds an orchestrator over a remote controller's fleet.
func New(cfg Config, remote *controller.Remote) (*Orchestrator, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("orchestrator: nil topology")
	}
	if len(cfg.Budgets) == 0 {
		return nil, fmt.Errorf("orchestrator: empty fleet budget set")
	}
	for name := range cfg.Budgets {
		if id := cfg.Topo.NodeByName(name); id < 0 {
			return nil, fmt.Errorf("orchestrator: budget for unknown switch %q", name)
		} else if cfg.Topo.Node(id).Kind == topology.Host {
			return nil, fmt.Errorf("orchestrator: %q is a host, not a switch", name)
		}
	}
	cfg.Budgets = maps.Clone(cfg.Budgets)
	trackers := make(map[string]*scheduler.Tracker, len(cfg.Budgets))
	for name, b := range cfg.Budgets {
		trackers[name] = scheduler.NewTracker(b)
	}
	return &Orchestrator{
		cfg: cfg, remote: remote,
		drained:   map[string]bool{},
		deployed:  map[string]*deployedState{},
		widthCap:  map[string]uint32{},
		compiled:  map[string]*compiledIntent{},
		trackers:  trackers,
		live:      make(map[string]*scheduler.Tracker, len(trackers)),
		stagesPer: stagesPer(cfg.StagesPerSwitch, trackers),
	}, nil
}

// SetWidthCap pins the width the next plan grants query name (clamped
// into its intent's ladder bounds). Zero clears the cap, returning the
// intent to its default provisioning. The refiner is the intended
// caller; operators can use it as a manual override.
func (o *Orchestrator) SetWidthCap(name string, w uint32) {
	o.mu.Lock()
	if w == 0 {
		delete(o.widthCap, name)
	} else {
		o.widthCap[name] = w
	}
	o.mu.Unlock()
}

// Intents returns a copy of the current intent set.
func (o *Orchestrator) Intents() []Intent {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Intent(nil), o.intents...)
}

// SetIntents replaces the intent set. The next Plan/Apply converges the
// network to it. A withdrawn query's width cap and compiled rungs go
// with it.
func (o *Orchestrator) SetIntents(intents []Intent) {
	o.mu.Lock()
	o.intents = append([]Intent(nil), intents...)
	maps.DeleteFunc(o.widthCap, func(name string, _ uint32) bool { return !hasIntent(intents, name) })
	maps.DeleteFunc(o.compiled, func(name string, _ *compiledIntent) bool { return !hasIntent(intents, name) })
	o.mu.Unlock()
}

// hasIntent reports whether intents still lists a query by that name:
// what the width caps and the refiner's per-query state live by.
func hasIntent(intents []Intent, name string) bool {
	return slices.ContainsFunc(intents, func(in Intent) bool { return in.Query != nil && in.Query.Name == name })
}

// Drain excludes a switch from future plans (maintenance, failure). Its
// installed partitions are removed by the next Apply.
func (o *Orchestrator) Drain(name string) {
	o.mu.Lock()
	if !o.drained[name] {
		o.drained[name] = true
		o.drains++
	}
	o.mu.Unlock()
}

// Undrain returns a switch to the plannable fleet.
func (o *Orchestrator) Undrain(name string) {
	o.mu.Lock()
	if o.drained[name] {
		delete(o.drained, name)
		o.drains++
	}
	o.mu.Unlock()
}

// IsDrained reports whether a switch is currently excluded from plans.
func (o *Orchestrator) IsDrained(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.drained[name]
}

// Switches returns the fleet's switch names, sorted.
func (o *Orchestrator) Switches() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return sortedKeys(o.cfg.Budgets)
}

// stagesPer resolves the partition size (see Config.StagesPerSwitch)
// over the fleet's trackers, whose budgets hold the default stage count
// where a switch's leaves it zero.
func stagesPer(configured int, trackers map[string]*scheduler.Tracker) int {
	if configured > 0 {
		return configured
	}
	min := 0
	for _, tr := range trackers {
		s := tr.Budget().Stages
		if min == 0 || s < min {
			min = s
		}
	}
	if min > 2 {
		return min - 2
	}
	return min
}

// Plan recomputes placement and admission for every intent, in priority
// order, against the per-switch budget trackers emptied for the plan —
// then diffs the result against the recorded deployment. It is pure: no
// agent is contacted until Apply.
func (o *Orchestrator) Plan() (*Plan, Diff, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.planLocked()
}

func (o *Orchestrator) planLocked() (*Plan, Diff, error) {
	clear(o.live)
	for name, tr := range o.trackers {
		if !o.drained[name] {
			tr.Reset()
			o.live[name] = tr
		}
	}
	if len(o.live) == 0 {
		return nil, Diff{}, fmt.Errorf("orchestrator: every switch is drained")
	}

	order := o.order[:0]
	for i := range o.intents {
		order = append(order, i)
	}
	o.order = order
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(o.intents[b].Priority, o.intents[a].Priority)
	})

	// A query name is one deployment: the first intent of a name in
	// priority order plans, the rest are refused.
	plans := make([]QueryPlan, len(o.intents))
	for i, idx := range order {
		in := o.intents[idx]
		if slices.ContainsFunc(order[:i], func(j int) bool { return o.intents[j].Query.Name == in.Query.Name }) {
			plans[idx] = QueryPlan{Intent: in, Reason: duplicateName}
			continue
		}
		plans[idx] = o.planIntent(in)
	}
	p := &Plan{Queries: plans, StagesPer: o.stagesPer}
	return p, o.diff(p), nil
}

// duplicateName is the refusal of an intent whose query name an intent
// of higher (or equal, earlier) priority already plans.
const duplicateName = "duplicate intent name"

// planIntent walks the width ladder for one intent: each rung compiles
// once in the intent's life, assigns the program (whole replicas, else
// placed partitions) and charges that assignment on the live trackers;
// the first rung every switch accepts commits. An intent whose query,
// bounds and edges are unchanged, on a topology and drained set that are
// unchanged, reuses every rung's assignment and only charges it again:
// a higher-priority newcomer can still push it down the ladder.
func (o *Orchestrator) planIntent(in Intent) QueryPlan {
	ci := o.compiled[in.Query.Name]
	if ci == nil || !query.Equal(ci.q, in.Query) {
		ci = &compiledIntent{q: in.Query.Clone(), qid: placeholderQID(in.Query.Name)}
		o.compiled[in.Query.Name] = ci
	}
	ladder, err := ci.widthLadder(in.MinWidth, in.MaxWidth)
	if err != nil {
		return QueryPlan{Intent: in, Reason: err.Error()}
	}
	// Rungs off the current ladder go, so an intent keeps at most one
	// program per rung however often its bounds move.
	ci.rungs = slices.DeleteFunc(ci.rungs, func(r *compiledRung) bool { return !slices.Contains(ladder, r.width) })
	maxW := ladder[0]
	if cap, ok := o.widthCap[in.Query.Name]; ok {
		// The refiner (or an operator) pinned this query's width: bid for
		// that rung, degrading below it only under capacity pressure.
		ladder = capRungs(ladder, cap)
	} else if in.Accuracy.Enabled() {
		// Frugal start for unrefined accuracy intents: provision the
		// narrowest rung and let observed error earn any width above it.
		ladder = ladder[len(ladder)-1:]
	}

	edgeIDs, err := ci.resolveEdges(o.cfg.Topo, in.Edges)
	if err != nil {
		return QueryPlan{Intent: in, Reason: err.Error()}
	}

	reason := "does not fit at any acceptable width"
	for _, w := range ladder {
		r, err := ci.rung(&o.compiler, w)
		if err != nil {
			return QueryPlan{Intent: in, Reason: err.Error()} // compilation failure does not improve with width
		}
		a := o.assign(r, edgeIDs)
		why := a.why
		if why == "" {
			why = charge(a.hosts, o.live)
		}
		if why == "" {
			rung := QueryPlan{Intent: in, Admitted: true, Width: w, Stages: r.whole[0].NumStages(), M: 1,
				Single: a.single, Targets: a.targets, q: ci.q, programs: r.whole[:]}
			if !a.single {
				rung.M, rung.Parts, rung.programs = a.m, a.parts, r.parts
			}
			if w != maxW {
				rung.Reason = r.degradedFrom(maxW)
			}
			return rung
		}
		reason = why
	}
	return QueryPlan{Intent: in, Reason: reason}
}

// degradedFrom is the reason a plan gives for granting rung r when the
// ladder tops out at maxW, kept on the rung so a replan formats nothing.
func (r *compiledRung) degradedFrom(maxW uint32) string {
	if r.degradedOf != maxW || r.degraded == "" {
		r.degradedOf, r.degraded = maxW, fmt.Sprintf("degraded from %d to %d registers per row", maxW, r.width)
	}
	return r.degraded
}

// capRungs restricts a ladder to the rungs at or below cap, keeping at
// least the narrowest rung so a cap below the ladder floor still plans.
// The ladder descends, so they are a suffix of it.
func capRungs(ladder []uint32, cap uint32) []uint32 {
	for i, w := range ladder {
		if w <= cap {
			return ladder[i:]
		}
	}
	return ladder[len(ladder)-1:]
}

// resolveEdges maps intent edge names to topology IDs (all edge
// switches when empty).
func resolveEdges(topo *topology.Topology, names []string) ([]int, error) {
	if len(names) == 0 {
		ids := topo.EdgeSwitches()
		if len(ids) == 0 {
			return nil, fmt.Errorf("orchestrator: topology has no edge switches")
		}
		return ids, nil
	}
	ids := make([]int, 0, len(names))
	for _, n := range names {
		id := topo.NodeByName(n)
		if id < 0 {
			return nil, fmt.Errorf("orchestrator: unknown edge switch %q", n)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// assign returns rung r's assignment over the live fleet for the edge
// switches edgeIDs: the one it keeps while its stamp and the drain
// generation hold, else a new one — whole replicas when every monitored
// edge switch is live and has the program's stages, placed partitions
// otherwise. Replicas depend on the drained set only through that test,
// so a drain keeps a replica assignment's targets.
func (o *Orchestrator) assign(r *compiledRung, edgeIDs []int) *assignment {
	topo := o.cfg.Topo.Version()
	kept := r.assignedFor.holds(topo, edgeIDs)
	if kept && r.drains == o.drains {
		return &r.assigned
	}
	switch {
	case !o.replicable(r.whole[0], edgeIDs):
		r.assigned = o.partitions(r, edgeIDs)
	case !kept || !r.assigned.single:
		r.assigned = o.replicas(r.whole[0], edgeIDs)
	}
	r.assignedFor, r.drains = stamp{topo, edgeIDs}, o.drains
	return &r.assigned
}

// replicable reports whether every monitored edge switch is live and
// has the stages program p needs.
func (o *Orchestrator) replicable(p *modules.Program, edgeIDs []int) bool {
	stages := p.NumStages()
	for _, id := range edgeIDs {
		if tr, live := o.live[o.cfg.Topo.Node(id).Name]; !live || stages > tr.Budget().Stages {
			return false
		}
	}
	return true
}

// replicas assigns the whole program to every monitored edge switch, in
// edge order, with targets listing them sorted.
func (o *Orchestrator) replicas(p *modules.Program, edgeIDs []int) assignment {
	a := assignment{single: true, targets: make([]string, len(edgeIDs)), hosts: make([]hosting, len(edgeIDs))}
	for i, id := range edgeIDs {
		a.targets[i] = o.cfg.Topo.Node(id).Name
		a.hosts[i] = hosting{sw: a.targets[i], prog: p, part: -1}
	}
	sort.Strings(a.targets)
	return a
}

// partitions runs resilient placement over the full topology, restricts
// the assignment to the live fleet, and assigns each switch its slices
// of the program, switches in name order. Placement is computed on the
// whole graph — a switch outside the fleet simply cannot host its
// assignment, which loses redundancy but never correctness, except when
// partition 0 would vanish entirely (monitored traffic's first hop):
// that rejects. The placement is kept on the rung while the topology
// and the edges hold, so a drain or an undrain only filters it again.
func (o *Orchestrator) partitions(r *compiledRung, edgeIDs []int) assignment {
	if topo := o.cfg.Topo.Version(); !r.placedFor.holds(topo, edgeIDs) {
		r.placed, r.m, r.placeErr = placement.Place(o.cfg.Topo, edgeIDs, r.whole[0].NumStages(), o.stagesPer)
		r.placedFor = stamp{topo, edgeIDs}
	}
	if r.placeErr != nil {
		return assignment{why: r.placeErr.Error()}
	}

	// The rung's program sliced for admission accounting, once per rung.
	if r.parts == nil {
		var err error
		if r.parts, err = modules.SliceProgram(r.whole[0], o.stagesPer); err != nil {
			return assignment{why: err.Error()}
		}
	}

	parts := map[string][]int{}
	part0Hosted := false
	for sw, idxs := range r.placed {
		name := o.cfg.Topo.Node(sw).Name
		if _, live := o.live[name]; !live {
			continue // not in the fleet, or drained
		}
		parts[name] = slices.Clone(idxs)
		part0Hosted = part0Hosted || slices.Contains(idxs, 0)
	}
	if len(parts) == 0 {
		return assignment{why: "no live switch can host any partition"}
	}
	if !part0Hosted {
		return assignment{why: "no live switch hosts partition 0 (all monitored edge switches drained?)"}
	}

	var hosts []hosting
	for _, name := range sortedKeys(parts) {
		for _, k := range parts[name] {
			hosts = append(hosts, hosting{sw: name, prog: r.parts[k], part: k})
		}
	}
	return assignment{m: r.m, parts: parts, hosts: hosts}
}

// hosting is one program a rung places on a switch: partition part of
// the query, or the whole program when part is -1.
type hosting struct {
	sw   string
	prog *modules.Program
	part int
}

// charge admits an assignment, in order, on the trackers: each program
// is checked and committed in turn, and a refusal releases what the
// assignment had committed. The refusal names the first switch (and
// partition) that does not fit.
func charge(assign []hosting, trackers map[string]*scheduler.Tracker) string {
	for i, h := range assign {
		tr := trackers[h.sw]
		if ok, why := tr.Fits(h.prog); !ok {
			for _, done := range assign[:i] {
				trackers[done.sw].Release(done.prog)
			}
			if h.part < 0 {
				return fmt.Sprintf("%s: %s", h.sw, why)
			}
			return fmt.Sprintf("%s (partition %d): %s", h.sw, h.part, why)
		}
		tr.Commit(h.prog)
	}
	return ""
}

// diff compares a plan against the recorded deployment. A change that
// keeps the deploy mode and the query keeps the qid; a Single <->
// partitioned flip or an edited query, which the controller refuses
// under a live qid, is a remove and an install. It counts the deltas
// before it lists them, so the list is its one allocation.
func (o *Orchestrator) diff(p *Plan) Diff {
	var n [numKinds]int
	for i := range p.Queries {
		remove, kind := o.change(&p.Queries[i])
		if remove {
			n[removeKind]++
		}
		n[kind]++
	}
	for name := range o.deployed {
		if !planned(p, name) {
			n[removeKind]++
		}
	}
	total := n[removeKind] + n[resizeKind] + n[moveKind] + n[installKind]
	if total == 0 {
		return Diff{}
	}
	deltas := make([]Delta, total)
	var at [numKinds]int // where each kind's next delta goes
	for k := removeKind + 1; k < noChange; k++ {
		at[k] = at[k-1] + n[k-1]
	}
	put := func(kind int, d Delta) {
		deltas[at[kind]] = d
		at[kind]++
	}
	for i := range p.Queries {
		qp := &p.Queries[i]
		name := qp.Intent.Query.Name
		remove, kind := o.change(qp)
		if remove {
			put(removeKind, Delta{Query: name, QID: o.deployed[name].qid})
		}
		switch kind {
		case installKind:
			put(kind, Delta{Query: name, Target: qp})
		case resizeKind, moveKind:
			put(kind, Delta{Query: name, QID: o.deployed[name].qid, Target: qp})
		}
	}
	for name, cur := range o.deployed {
		if !planned(p, name) {
			put(removeKind, Delta{Query: name, QID: cur.qid})
		}
	}
	slices.SortFunc(deltas[:n[removeKind]], func(a, b Delta) int { return strings.Compare(a.Query, b.Query) })
	return Diff{Deltas: deltas}
}

// The kinds of delta, in the order a Diff lists them.
const (
	removeKind  = iota // the deployed qid goes
	resizeKind         // in place, to another width
	moveKind           // in place, to other switches
	installKind        // under a new qid
	noChange
	numKinds
)

// change says what planned query qp asks of the deployment: whether its
// deployed qid goes, and the delta that then brings it to its plan
// (noChange for none).
func (o *Orchestrator) change(qp *QueryPlan) (remove bool, kind int) {
	if qp.Reason == duplicateName {
		return false, noChange // the name's first intent speaks for it
	}
	cur, deployed := o.deployed[qp.Intent.Query.Name]
	switch {
	case deployed && (!qp.Admitted || cur.plan.Single != qp.Single || !query.Equal(cur.plan.q, qp.q)):
		if qp.Admitted {
			return true, installKind
		}
		return true, noChange
	case !qp.Admitted, deployed && samePlan(cur.plan, *qp):
		return false, noChange // rejected and not deployed, or converged
	case !deployed:
		return false, installKind
	case cur.plan.Width != qp.Width:
		return false, resizeKind
	}
	return false, moveKind
}

// planned reports whether p plans a query by that name.
func planned(p *Plan, name string) bool {
	return slices.ContainsFunc(p.Queries, func(qp QueryPlan) bool { return qp.Intent.Query.Name == name })
}

// samePlan reports whether a deployed query already matches its target.
func samePlan(a, b QueryPlan) bool {
	return a.Single == b.Single && a.Width == b.Width && a.M == b.M &&
		slices.Equal(a.Targets, b.Targets) && maps.EqualFunc(a.Parts, b.Parts, slices.Equal[[]int])
}

// Apply commits a diff through the remote controller's one transactional
// path, recording each success: a delta either removes a query or makes
// its target the controller's desired state for the qid (a new qid for
// an install), and the controller contacts only the switches whose
// share changed. It stops at the first error — already-applied deltas
// stay recorded, so a retry applies only the remainder.
func (o *Orchestrator) Apply(p *Plan, d Diff) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.applyLocked(p, d)
}

func (o *Orchestrator) applyLocked(p *Plan, d Diff) error {
	for _, dl := range d.Deltas {
		t := dl.Target
		if t == nil {
			if err := o.remote.Remove(dl.QID); err != nil {
				return fmt.Errorf("orchestrator: remove %s: %w", dl.Query, err)
			}
			delete(o.deployed, dl.Query)
			continue
		}
		want := controller.Want{Query: t.q, Width: t.Width, Targets: t.Targets, Programs: t.programs}
		if !t.Single {
			want.StagesPer, want.Parts = p.StagesPer, t.Parts
		}
		qid, _, err := o.remote.Deploy(dl.QID, want)
		if err != nil {
			return fmt.Errorf("orchestrator: deploy %s: %w", dl.Query, err)
		}
		o.deployed[dl.Query] = &deployedState{qid: qid, plan: *t}
	}
	return nil
}

// Converge is Plan followed by Apply — the one-call path for callers
// that do not need to inspect the diff.
func (o *Orchestrator) Converge() (*Plan, Diff, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, d, err := o.planLocked()
	if err != nil {
		return nil, Diff{}, err
	}
	return p, d, o.applyLocked(p, d)
}

// Deployed returns the recorded deployment: query name to (qid, plan).
func (o *Orchestrator) Deployed() map[string]QueryPlan {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]QueryPlan, len(o.deployed))
	for name, st := range o.deployed {
		out[name] = st.plan
	}
	return out
}

// QID returns the deployed qid for a query name (0 if not deployed).
func (o *Orchestrator) QID(name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if st, ok := o.deployed[name]; ok {
		return st.qid
	}
	return 0
}

// Summary renders a plan for operators.
func Summary(p *Plan) string {
	var b strings.Builder
	for _, qp := range p.Queries {
		status := "REJECTED"
		detail := qp.Reason
		if qp.Admitted {
			status = "admitted"
			if qp.Single {
				detail = fmt.Sprintf("width=%d single-switch on %s", qp.Width, strings.Join(qp.Targets, ","))
			} else {
				detail = fmt.Sprintf("width=%d %d partitions over %d switches", qp.Width, qp.M, len(qp.Parts))
			}
			if qp.Reason != "" {
				detail += " (" + qp.Reason + ")"
			}
		}
		fmt.Fprintf(&b, "%-26s prio=%-3d %s  %s\n", qp.Intent.Query.Name, qp.Intent.Priority, status, detail)
	}
	return b.String()
}
