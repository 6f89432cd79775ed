// Package orchestrator is the network-wide deployment pipeline that
// joins the repo's planning islands: resilient placement (§5.2) slices
// each prioritized intent into partitions, per-switch budget-checked
// admission (the §7 scheduling problem, generalized from one device to
// the fleet) degrades sketch widths down the accuracy ladder before
// rejecting, and controller.Remote's transactional deploy pushes the
// result to the switch agents — with expected telemetry contributors
// registered so merged epochs carry honest Partial/Missing provenance.
//
// Plan is a pure recompute: it never talks to agents. The typed Diff it
// returns against the recorded deployment is what Apply drives, so a
// topology or budget change (switch drained, envelope shrunk) touches
// only the delta — never a full redeploy. newton-ctl surfaces the same
// split as `plan` (inspect) and `apply` (commit).
package orchestrator

import (
	"fmt"
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
// agent names controller.Remote was built with.
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
}

// Plan is one full recompute over the intent set.
type Plan struct {
	Queries   []QueryPlan
	StagesPer int
}

// Action classifies one diff entry.
type Action int

const (
	// ActionInstall deploys a query not currently on the network.
	ActionInstall Action = iota
	// ActionUpdate moves an existing placement deploy to a new
	// assignment, touching only the changed switches.
	ActionUpdate
	// ActionRemove uninstalls a deployed query (intent withdrawn, or the
	// replan rejected it).
	ActionRemove
	// ActionResize changes a deployed query's sketch width in place —
	// same qid, same switches — via the controller's resize path, so
	// consumers tracking the query survive the geometry change.
	ActionResize
)

// String names the action as `newton-ctl plan` prints it.
func (a Action) String() string {
	switch a {
	case ActionInstall:
		return "install"
	case ActionUpdate:
		return "update"
	case ActionRemove:
		return "remove"
	case ActionResize:
		return "resize"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Delta is one operation needed to move the network from the recorded
// deployment to the new plan.
type Delta struct {
	Query  string
	Action Action
	QID    int // the deployed qid (update/remove/resize)

	// FromWidth is the currently deployed width a resize moves away from.
	FromWidth uint32

	// Per-switch assignment movement for updates: partitions gained and
	// lost by each switch. Unlisted switches are untouched.
	Add, Drop map[string][]int

	// Target is the desired end state (install/update).
	Target QueryPlan
}

// Diff is the typed plan-vs-deployed delta the operator inspects before
// Apply commits it. Deltas are ordered removes, then resizes, then
// updates, then installs, so freed capacity is available to newcomers.
type Diff struct {
	Deltas []Delta
}

// Empty reports whether the deployment already matches the plan.
func (d Diff) Empty() bool { return len(d.Deltas) == 0 }

// String renders the diff for operators.
func (d Diff) String() string {
	if d.Empty() {
		return "no changes: deployment matches plan\n"
	}
	var b strings.Builder
	for _, dl := range d.Deltas {
		fmt.Fprintf(&b, "%-8s %s", dl.Action, dl.Query)
		switch dl.Action {
		case ActionRemove:
			fmt.Fprintf(&b, " (qid %d)", dl.QID)
		case ActionResize:
			fmt.Fprintf(&b, " (qid %d) width %d -> %d", dl.QID, dl.FromWidth, dl.Target.Width)
		case ActionInstall:
			if dl.Target.Single {
				fmt.Fprintf(&b, " width=%d on %s", dl.Target.Width, strings.Join(dl.Target.Targets, ","))
			} else {
				fmt.Fprintf(&b, " width=%d %d partitions over %d switches",
					dl.Target.Width, dl.Target.M, len(dl.Target.Parts))
			}
		case ActionUpdate:
			fmt.Fprintf(&b, " (qid %d)", dl.QID)
			for _, sw := range sortedKeys(dl.Drop) {
				fmt.Fprintf(&b, " -%s%v", sw, dl.Drop[sw])
			}
			for _, sw := range sortedKeys(dl.Add) {
				fmt.Fprintf(&b, " +%s%v", sw, dl.Add[sw])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys(m map[string][]int) []string {
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

	obs orchObs
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
	return &Orchestrator{
		cfg: cfg, remote: remote,
		drained:  map[string]bool{},
		deployed: map[string]*deployedState{},
		widthCap: map[string]uint32{},
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
// network to it. A withdrawn query's width cap goes with it.
func (o *Orchestrator) SetIntents(intents []Intent) {
	o.mu.Lock()
	o.intents = append([]Intent(nil), intents...)
	for name := range o.widthCap {
		if !hasIntent(intents, name) {
			delete(o.widthCap, name)
		}
	}
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
	o.drained[name] = true
	o.mu.Unlock()
}

// Undrain returns a switch to the plannable fleet.
func (o *Orchestrator) Undrain(name string) {
	o.mu.Lock()
	delete(o.drained, name)
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
	out := make([]string, 0, len(o.cfg.Budgets))
	for name := range o.cfg.Budgets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// stagesPer resolves the partition size (see Config.StagesPerSwitch).
func (o *Orchestrator) stagesPer() int {
	if o.cfg.StagesPerSwitch > 0 {
		return o.cfg.StagesPerSwitch
	}
	min := 0
	for _, b := range o.cfg.Budgets {
		s := scheduler.NewTracker(b).Budget().Stages
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
// order, against fresh per-switch budget trackers — then diffs the
// result against the recorded deployment. It is pure: no agent is
// contacted until Apply.
func (o *Orchestrator) Plan() (*Plan, Diff, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.planLocked()
}

func (o *Orchestrator) planLocked() (*Plan, Diff, error) {
	o.obs.inc(&o.obs.plans)
	trackers := map[string]*scheduler.Tracker{}
	for name, b := range o.cfg.Budgets {
		if !o.drained[name] {
			trackers[name] = scheduler.NewTracker(b)
		}
	}
	if len(trackers) == 0 {
		return nil, Diff{}, fmt.Errorf("orchestrator: every switch is drained")
	}
	stagesPer := o.stagesPer()

	order := make([]int, len(o.intents))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return o.intents[order[a]].Priority > o.intents[order[b]].Priority
	})

	plans := make([]QueryPlan, len(o.intents))
	for _, idx := range order {
		qp := o.planIntent(o.intents[idx], trackers, stagesPer)
		if qp.Admitted {
			o.obs.inc(&o.obs.admissions)
		} else {
			o.obs.inc(&o.obs.rejections)
		}
		plans[idx] = qp
	}
	p := &Plan{Queries: plans, StagesPer: stagesPer}
	return p, o.diff(p), nil
}

// planIntent walks the width ladder for one intent: at each rung,
// compile, place, and tentatively admit against cloned trackers; the
// first rung every touched switch accepts is committed.
func (o *Orchestrator) planIntent(in Intent, trackers map[string]*scheduler.Tracker, stagesPer int) QueryPlan {
	qp := QueryPlan{Intent: in}
	ladder, err := scheduler.WidthLadder(in.MinWidth, in.MaxWidth)
	if err != nil {
		qp.Reason = err.Error()
		return qp
	}
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

	edgeIDs, err := o.resolveEdges(in.Edges)
	if err != nil {
		qp.Reason = err.Error()
		return qp
	}

	for _, w := range ladder {
		opts := compiler.AllOpts()
		opts.QID = 1 // placeholder: admission accounting ignores the qid
		opts.Width = w
		p, err := compiler.Compile(in.Query, opts)
		if err != nil {
			qp.Reason = err.Error()
			return qp // compilation failure does not improve with width
		}
		stages := p.NumStages()

		single := true
		for _, id := range edgeIDs {
			name := o.cfg.Topo.Node(id).Name
			tr, live := trackers[name]
			if !live || stages > tr.Budget().Stages {
				single = false
				break
			}
		}

		var reason string
		var admitted *QueryPlan
		if single {
			admitted, reason = o.admitSingle(in, p, w, stages, edgeIDs, trackers)
		} else {
			admitted, reason = o.admitPartitioned(in, w, stages, stagesPer, edgeIDs, trackers, opts)
		}
		if admitted != nil {
			if w != maxW {
				admitted.Reason = fmt.Sprintf("degraded from %d to %d registers per row", maxW, w)
			}
			return *admitted
		}
		qp.Reason = reason
	}
	if qp.Reason == "" {
		qp.Reason = "does not fit at any acceptable width"
	}
	return qp
}

// capRungs restricts a ladder to the rungs at or below cap, keeping at
// least the narrowest rung so a cap below the ladder floor still plans.
func capRungs(ladder []uint32, cap uint32) []uint32 {
	var out []uint32
	for _, w := range ladder {
		if w <= cap {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return ladder[len(ladder)-1:]
	}
	return out
}

// resolveEdges maps intent edge names to topology IDs (all edge
// switches when empty).
func (o *Orchestrator) resolveEdges(names []string) ([]int, error) {
	if len(names) == 0 {
		ids := o.cfg.Topo.EdgeSwitches()
		if len(ids) == 0 {
			return nil, fmt.Errorf("orchestrator: topology has no edge switches")
		}
		return ids, nil
	}
	ids := make([]int, 0, len(names))
	for _, n := range names {
		id := o.cfg.Topo.NodeByName(n)
		if id < 0 {
			return nil, fmt.Errorf("orchestrator: unknown edge switch %q", n)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// admitSingle replicates the full program on every monitored edge
// switch, charging each one's tracker.
func (o *Orchestrator) admitSingle(in Intent, p *modules.Program, w uint32, stages int, edgeIDs []int, trackers map[string]*scheduler.Tracker) (*QueryPlan, string) {
	var targets []string
	clones := map[string]*scheduler.Tracker{}
	for _, id := range edgeIDs {
		name := o.cfg.Topo.Node(id).Name
		tr := trackers[name]
		c := tr.Clone()
		if ok, why := c.Fits(p); !ok {
			return nil, fmt.Sprintf("%s: %s", name, why)
		}
		c.Commit(p)
		clones[name] = c
		targets = append(targets, name)
	}
	sort.Strings(targets)
	for name, c := range clones {
		trackers[name] = c
	}
	return &QueryPlan{
		Intent: in, Admitted: true, Width: w, Stages: stages,
		M: 1, Single: true, Targets: targets,
	}, ""
}

// admitPartitioned runs resilient placement over the full topology,
// restricts the assignment to the live fleet, and charges each switch's
// tracker for its partitions. Placement is computed on the whole graph —
// a switch outside the fleet simply cannot host its assignment, which
// loses redundancy but never correctness, except when partition 0 would
// vanish entirely (monitored traffic's first hop): that rejects.
func (o *Orchestrator) admitPartitioned(in Intent, w uint32, stages, stagesPer int, edgeIDs []int, trackers map[string]*scheduler.Tracker, opts compiler.Options) (*QueryPlan, string) {
	pl, m, err := placement.Place(o.cfg.Topo, edgeIDs, stages, stagesPer)
	if err != nil {
		return nil, err.Error()
	}

	// One sliced instance for admission accounting; Apply's installs
	// compile fresh per-switch copies inside controller.Remote.
	logical, err := compiler.Compile(in.Query, opts)
	if err != nil {
		return nil, err.Error()
	}
	partProgs, err := modules.SliceProgram(logical, stagesPer)
	if err != nil {
		return nil, err.Error()
	}

	parts := map[string][]int{}
	part0Hosted := false
	for sw, idxs := range pl {
		name := o.cfg.Topo.Node(sw).Name
		if _, live := trackers[name]; !live {
			continue // not in the fleet, or drained
		}
		parts[name] = append([]int(nil), idxs...)
		for _, k := range idxs {
			if k == 0 {
				part0Hosted = true
			}
		}
	}
	if len(parts) == 0 {
		return nil, "no live switch can host any partition"
	}
	if !part0Hosted {
		return nil, "no live switch hosts partition 0 (all monitored edge switches drained?)"
	}

	clones := map[string]*scheduler.Tracker{}
	for _, name := range sortedKeys(parts) {
		c := trackers[name].Clone()
		for _, k := range parts[name] {
			p := partProgs[k]
			if ok, why := c.Fits(p); !ok {
				return nil, fmt.Sprintf("%s (partition %d): %s", name, k, why)
			}
			c.Commit(p)
		}
		clones[name] = c
	}
	for name, c := range clones {
		trackers[name] = c
	}
	return &QueryPlan{
		Intent: in, Admitted: true, Width: w, Stages: stages,
		M: m, Parts: parts,
	}, ""
}

// diff compares a plan against the recorded deployment.
func (o *Orchestrator) diff(p *Plan) Diff {
	var removes, resizes, updates, installs []Delta
	seen := map[string]bool{}
	for _, qp := range p.Queries {
		name := qp.Intent.Query.Name
		seen[name] = true
		cur, deployed := o.deployed[name]
		switch {
		case !qp.Admitted && deployed:
			removes = append(removes, Delta{Query: name, Action: ActionRemove, QID: cur.qid})
		case !qp.Admitted:
			// rejected and not deployed: nothing to do
		case !deployed:
			installs = append(installs, Delta{Query: name, Action: ActionInstall, Target: qp})
		case samePlan(cur.plan, qp):
			// converged
		case sameShapeIgnoringWidth(cur.plan, qp):
			// Only the width moved: resize in place, keeping the qid.
			resizes = append(resizes, Delta{
				Query: name, Action: ActionResize, QID: cur.qid,
				FromWidth: cur.plan.Width, Target: qp,
			})
		case !cur.plan.Single && !qp.Single &&
			cur.plan.Width == qp.Width && cur.plan.M == qp.M:
			add, drop := partsDelta(cur.plan.Parts, qp.Parts)
			updates = append(updates, Delta{
				Query: name, Action: ActionUpdate, QID: cur.qid,
				Add: add, Drop: drop, Target: qp,
			})
		default:
			// Shape changed (mode or width or partition count): replace.
			removes = append(removes, Delta{Query: name, Action: ActionRemove, QID: cur.qid})
			installs = append(installs, Delta{Query: name, Action: ActionInstall, Target: qp})
		}
	}
	for name, cur := range o.deployed {
		if !seen[name] {
			removes = append(removes, Delta{Query: name, Action: ActionRemove, QID: cur.qid})
		}
	}
	sort.Slice(removes, func(i, j int) bool { return removes[i].Query < removes[j].Query })
	var d Diff
	d.Deltas = append(d.Deltas, removes...)
	d.Deltas = append(d.Deltas, resizes...)
	d.Deltas = append(d.Deltas, updates...)
	d.Deltas = append(d.Deltas, installs...)
	return d
}

// sameShapeIgnoringWidth reports whether a deployed plan matches its
// target on everything but width — the in-place resize precondition.
func sameShapeIgnoringWidth(a, b QueryPlan) bool {
	a.Width = b.Width
	return samePlan(a, b)
}

// samePlan reports whether a deployed query already matches its target.
func samePlan(a, b QueryPlan) bool {
	if a.Single != b.Single || a.Width != b.Width || a.M != b.M {
		return false
	}
	if a.Single {
		if len(a.Targets) != len(b.Targets) {
			return false
		}
		for i := range a.Targets {
			if a.Targets[i] != b.Targets[i] {
				return false
			}
		}
		return true
	}
	if len(a.Parts) != len(b.Parts) {
		return false
	}
	for sw, ap := range a.Parts {
		if !sameInts(ap, b.Parts[sw]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// partsDelta computes per-switch partition gains and losses.
func partsDelta(old, new map[string][]int) (add, drop map[string][]int) {
	add, drop = map[string][]int{}, map[string][]int{}
	for sw, np := range new {
		op := old[sw]
		for _, k := range np {
			if !containsInt(op, k) {
				add[sw] = append(add[sw], k)
			}
		}
	}
	for sw, op := range old {
		np := new[sw]
		for _, k := range op {
			if !containsInt(np, k) {
				drop[sw] = append(drop[sw], k)
			}
		}
	}
	return add, drop
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
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
		if dl.Action == ActionRemove {
			if err := o.remote.Remove(dl.QID); err != nil {
				return fmt.Errorf("orchestrator: remove %s: %w", dl.Query, err)
			}
			delete(o.deployed, dl.Query)
		} else {
			t := dl.Target
			want := controller.Want{Query: t.Intent.Query, Width: t.Width, Targets: t.Targets}
			if !t.Single {
				want.StagesPer, want.Parts = p.StagesPer, t.Parts
			}
			qid, _, err := o.remote.Deploy(dl.QID, want)
			if err != nil {
				return fmt.Errorf("orchestrator: %s %s: %w", dl.Action, dl.Query, err)
			}
			o.deployed[dl.Query] = &deployedState{qid: qid, plan: t}
			if dl.Action == ActionResize {
				o.obs.inc(&o.obs.resizes)
			}
		}
		o.obs.inc(&o.obs.deltas)
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

// Summary renders a plan for operators, `scheduler.Summary`-style.
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
