package controller

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
)

// DeployOutcome is one switch's step in a change or in its rollback.
type DeployOutcome struct {
	Switch    string
	Installed bool  // some rpc of the step took effect on the switch
	Err       error // why the step failed
}

// PartialDeployError reports a change (deploy, update, resize, remove)
// that could not complete on every switch it touches. The controller
// rolls the touched switches back to the previous desired state before
// returning it, because a sharded or partitioned query missing a member
// silently undercounts every key that member owns — all-or-nothing is
// the only safe contract. Outcomes list the change's step on each
// switch it reached, the last one failed; Undone lists the rollback's
// step on each of those that had moved.
type PartialDeployError struct {
	QID      int
	Mode     string
	Failed   string // the switch the change failed on
	Outcomes []DeployOutcome
	Undone   []DeployOutcome
}

func (e *PartialDeployError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "controller: %s deploy of query %d failed on %q", e.Mode, e.QID, e.Failed)
	if res := e.Residual(); len(res) > 0 {
		fmt.Fprintf(&b, " (rollback incomplete, residual rules on %s)", strings.Join(res, ", "))
	} else {
		b.WriteString(" (rolled back)")
	}
	if n := len(e.Outcomes); n > 0 {
		fmt.Fprintf(&b, ": %v", e.Outcomes[n-1].Err)
	}
	return b.String()
}

// Residual names switches left off the previous desired state: their
// rollback failed too, and they may hold the wrong rules.
func (e *PartialDeployError) Residual() []string {
	var out []string
	for _, o := range e.Undone {
		if o.Err != nil {
			out = append(out, o.Switch)
		}
	}
	return out
}

// Want is the desired state of one query on the fleet: what it is, and
// which switch holds which part of it.
type Want struct {
	Query *query.Query
	Width uint32 // per-row register width (0 = compiler default)

	// Targets each hold the whole program (nil = every agent, sorted).
	// With Sharded they key-shard its stateful banks instead (§5.1):
	// target i owns keys whose owner hash ≡ i mod len(Targets), so the
	// analyzer's merged banks reconstruct the network-wide view.
	Targets []string
	Sharded bool

	// StagesPer > 0 selects a cross-switch placement (§5.2) instead: the
	// compiled query is sliced into ceil(stages/StagesPer) partitions and
	// Parts maps each switch to the partition indices it hosts.
	StagesPer int
	Parts     map[string][]int
}

// share is one switch's part of a query — all the compiler needs, beside
// the query and its qid, to produce that switch's programs.
type share struct {
	width         uint32
	shard, shards uint32 // key-shard index and count (0, 0 = unsharded)
	stagesPer     int    // > 0: parts indexes the StagesPer-stage slices
	parts         []int
}

func (s share) equal(t share) bool {
	return s.width == t.width && s.shard == t.shard && s.shards == t.shards &&
		s.stagesPer == t.stagesPer && slices.Equal(s.parts, t.parts)
}

// torn marks a switch where only some of a share's programs landed; it
// equals no wanted share, so the next reconcile clears the switch.
var torn = share{stagesPer: -1}

// programs compiles the programs a switch holding s installs: the whole
// (possibly sharded) program, or its assigned partition slices. This is
// the one place a deployment becomes programs. They are compiled fresh
// per switch — register bindings are filled in at install time, so two
// engines must never share a *Program.
func (s share) programs(q *query.Query, qid int) ([]*modules.Program, error) {
	o := compiler.AllOpts()
	o.QID, o.Width = qid, s.width
	o.ShardIndex, o.ShardCount = s.shard, s.shards
	p, err := compiler.Compile(q, o)
	if err != nil {
		return nil, err
	}
	if s.stagesPer <= 0 {
		return []*modules.Program{p}, nil
	}
	slices, err := modules.SliceProgram(p, s.stagesPer)
	if err != nil {
		return nil, err
	}
	out := make([]*modules.Program, 0, len(s.parts))
	for _, k := range s.parts {
		if k < 0 || k >= len(slices) {
			return nil, fmt.Errorf("controller: partition %d out of range (query slices into %d)", k, len(slices))
		}
		out = append(out, slices[k])
	}
	return out, nil
}

// ownsState reports whether a program holds at least one owning state
// bank — a PassThrough or CrossRead S op keeps no per-switch state, so a
// partition made only of those never contributes bank snapshots.
func ownsState(p *modules.Program) bool {
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Kind == modules.ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead {
				return true
			}
		}
	}
	return false
}

// spec is a Want resolved against the fleet: its members in the order
// they are driven in (for a sharded query, the shard-index order).
type spec struct {
	Want
	mode  string // "replicate", "shard" or "placement"
	names []string
}

// shareOf returns switch n's part of the spec; a nil spec wants nothing.
func (s *spec) shareOf(n string) (share, bool) {
	if s == nil {
		return share{}, false
	}
	sh := share{width: s.Width, stagesPer: s.StagesPer}
	if s.StagesPer > 0 {
		parts, ok := s.Parts[n]
		sh.parts = parts
		return sh, ok
	}
	i := slices.Index(s.names, n)
	if s.Sharded {
		sh.shard, sh.shards = uint32(i), uint32(len(s.names))
	}
	return sh, i >= 0
}

// installed is what the controller believes one switch holds for one
// query.
type installed struct {
	share
	owns  bool // some program owns a state bank: the switch contributes snapshots
	rules int  // rule entries the programs take, newton_fin's included
}

// agent is what the controller asks of one switch: the control
// channel's calls, answered by an *rpc.Client or, for a switch of a
// simulated network, by its engine in process (local).
type agent interface {
	Install(*modules.Program) error
	Remove(qid int) error
	NextEpoch() error
	DrainReports() ([]dataplane.Report, error)
}

// Remote is the Newton controller speaking to switch agents — over the
// control channel (internal/rpc) in the shape of a real deployment,
// where the controller is "a module of the centralized network
// controller or ... an independent process" (§7), or in process behind
// Newton, which plans a simulated network's deployments onto it.
//
// A query is a rule set installed, removed and updated at runtime, and
// Remote reaches every such change one way. It keeps two records: want,
// the desired state per qid, and have, what each switch is believed to
// hold. Every operation edits want and calls reconcile, which drives
// the switches whose have differs; a deploy, a placement update, a
// resize, a remove, a rejoin and a reconverge are different edits, not
// different code.
type Remote struct {
	// mu serializes every control-plane operation, including across the
	// network calls an operation makes: the health monitor's SetOffline
	// and an orchestrator converge may drive the same controller
	// concurrently, and interleaving a deploy with an offline flip would
	// corrupt the recorded state.
	mu     sync.Mutex
	agents map[string]agent
	names  []string // every agent, sorted
	rng    *rand.Rand

	nextQID int
	want    map[int]*spec
	have    map[string]map[int]installed // switch -> qid -> what it holds

	// offline marks switches the health monitor has declared unreachable.
	// reconcile skips them instead of burning the rpc client's full retry
	// budget against a dead peer: a change that needs one fails fast, and
	// one that only takes programs away from it succeeds with the
	// difference left in have — reconciled when SetOffline(false)
	// re-admits the switch, so a partitioned-but-alive switch cannot
	// rejoin the fleet still holding programs the fleet moved elsewhere.
	offline map[string]bool

	// svc, when attached, replaces per-agent report polling: agents push
	// reports to the analyzer service and Collect drains the merged,
	// network-wide-deduplicated stream instead.
	svc *telemetry.Service

	obs ctlObs
}

// NewRemote builds a controller over named agent connections. The seed
// drives the latency jitter.
func NewRemote(clients map[string]*rpc.Client, seed int64) *Remote {
	agents := make(map[string]agent, len(clients))
	for n, c := range clients {
		agents[n] = c
	}
	return newRemote(agents, seed)
}

func newRemote(agents map[string]agent, seed int64) *Remote {
	r := &Remote{
		agents: agents, rng: rand.New(rand.NewSource(seed)), nextQID: 1,
		want: map[int]*spec{}, have: map[string]map[int]installed{},
		offline: map[string]bool{},
	}
	for n := range agents {
		r.names = append(r.names, n)
		r.have[n] = map[int]installed{}
	}
	sort.Strings(r.names)
	return r
}

// settled reports whether switch n holds exactly what want asks of it
// for qid.
func (r *Remote) settled(n string, qid int) bool {
	cur, held := r.have[n][qid]
	goal, wanted := r.want[qid].shareOf(n)
	return held == wanted && (!held || cur.share.equal(goal))
}

// put records s as the desired state of qid; nil wants nothing.
func (r *Remote) put(qid int, s *spec) {
	if s == nil {
		delete(r.want, qid)
	} else {
		r.want[qid] = s
	}
}

// Rule-operation latencies, calibrated against Fig. 11: installing a
// small query (Q1, ~12 rules) takes ~5 ms; the largest (~55 rules) stays
// under ~25 ms. Rule operations are batched per switch and switches are
// programmed in parallel, so the slowest switch bounds an operation's
// delay; it jitters ±10% per operation.
const (
	installBase    = 1500 * time.Microsecond
	installPerRule = 320 * time.Microsecond
	removeBase     = 1200 * time.Microsecond
	removePerRule  = 260 * time.Microsecond
)

// pass is what one reconcile did.
type pass struct {
	steps   []DeployOutcome // one per switch contacted, in order
	first   *modules.Program
	rules   int           // rule entries installed, fleet-wide
	slowest time.Duration // the longest modeled rule batch of any one switch
	delay   time.Duration // the operation's modeled latency: slowest, jittered (set)
}

// reconcile is the one place the controller changes what switches hold.
// Each named switch, in order, that is online and not settled for qid
// has the qid removed and the wanted programs installed, compiled once
// per switch, and have updated to match. It stops at the first failing
// switch unless keepGoing (a rollback must attempt every switch). With
// verify, a settled switch is offered its programs again and "already
// installed" counts as success — the answer to an agent that restarted
// and lost its installs behind the controller's back.
func (r *Remote) reconcile(qid int, names []string, verify, keepGoing bool) pass {
	p := pass{steps: make([]DeployOutcome, 0, len(names))}
	for _, n := range names {
		_, wanted := r.want[qid].shareOf(n)
		if r.offline[n] || r.settled(n, qid) && !(verify && wanted) {
			continue
		}
		step := DeployOutcome{Switch: n}
		step.Installed, step.Err = r.drive(n, qid, verify, &p)
		p.steps = append(p.steps, step)
		if step.Err != nil && !keepGoing {
			break
		}
	}
	return p
}

// drive is reconcile's step for one switch. changed reports whether any
// rpc took effect, so a failed step still tells the rollback that this
// switch moved.
func (r *Remote) drive(n string, qid int, verify bool, p *pass) (changed bool, err error) {
	c, ok := r.agents[n]
	if !ok {
		return false, fmt.Errorf("controller: no agent %q", n)
	}
	goal, wanted := r.want[qid].shareOf(n)
	var progs []*modules.Program
	if wanted {
		if progs, err = goal.programs(r.want[qid].Query, qid); err != nil {
			return false, err
		}
	}
	var batch time.Duration
	if cur, held := r.have[n][qid]; held && !r.settled(n, qid) {
		// An agent that restarted while away already lost the programs:
		// not-installed is the desired state, not a failure.
		if err := c.Remove(qid); err != nil && !errors.Is(err, modules.ErrNotInstalled) {
			return false, fmt.Errorf("controller: agent %q: %w", n, err)
		}
		delete(r.have[n], qid)
		changed = true
		batch = removeBase + time.Duration(cur.rules)*removePerRule
	}
	got := installed{share: goal}
	for i, prog := range progs {
		if err := c.Install(prog); err != nil && !(verify && errors.Is(err, modules.ErrAlreadyInstalled)) {
			if i > 0 {
				r.have[n][qid] = installed{share: torn}
			}
			return changed || i > 0, fmt.Errorf("controller: agent %q: %w", n, err)
		}
		got.owns = got.owns || ownsState(prog)
		got.rules += prog.RuleCount() + 1 // + newton_fin entry
		if p.first == nil {
			p.first = prog
		}
	}
	if wanted {
		r.have[n][qid] = got
		p.rules += got.rules
		batch += installBase + time.Duration(got.rules)*installPerRule
	}
	p.slowest = max(p.slowest, batch)
	return true, nil
}

// set makes next the desired state of qid (nil removes it) and
// reconciles the switches of the old and the new state; only those
// whose share changed are contacted. The one rollback rule: when a
// switch fails, the previous desired state is restored and every switch
// touched so far is reconciled back to it, so no switch keeps a program
// the records do not know about. Transient transport failures are
// retried inside each rpc client; only exhausted retries or agent
// rejections fail a switch. The pass of a change that committed comes
// back with the operation's modeled latency in delay: one jitter draw
// per operation that contacted a switch.
func (r *Remote) set(qid int, next *spec) (pass, error) {
	prev := r.want[qid]
	var names []string
	mode, resized := "", false
	ok, fail := &r.obs.updates, &r.obs.deployFailures
	switch {
	case next == nil:
		names, mode, ok, fail = prev.names, prev.mode, &r.obs.removes, &r.obs.removeFailures
	case prev == nil:
		names, mode, ok = next.names, next.mode, &r.obs.deploys
	default:
		// The old state's switches first, then the new one's: a switch
		// in both is settled by its first visit.
		names = append(append(names, prev.names...), next.names...)
		mode, resized = next.mode, prev.Width != next.Width
		if resized {
			ok, fail = &r.obs.resizes, &r.obs.resizeFailures
		}
	}
	r.put(qid, next)

	// Preflight before any rpc: a change that needs an offline switch is
	// doomed, and failing here costs nothing instead of a rollback.
	// Taking programs away from one is only deferred: the difference
	// stays in have until SetOffline(false) reconciles it.
	var deferred uint64
	for _, n := range names {
		if !r.offline[n] || r.settled(n, qid) {
			continue
		}
		if _, wanted := next.shareOf(n); wanted {
			r.put(qid, prev)
			inc(fail)
			return pass{}, &PartialDeployError{QID: qid, Mode: mode, Failed: n,
				Outcomes: []DeployOutcome{{Switch: n, Err: fmt.Errorf("controller: agent %q offline", n)}}}
		}
		deferred++
	}

	p := r.reconcile(qid, names, false, false)
	if k := len(p.steps); k > 0 && p.steps[k-1].Err != nil {
		inc(fail)
		r.put(qid, prev)
		// The switches the change never reached are still settled for
		// prev, so this contacts exactly the ones that moved.
		undone := r.reconcile(qid, names, false, true).steps
		for _, s := range undone {
			if s.Err != nil {
				inc(&r.obs.rollbackFailures)
			} else {
				inc(&r.obs.rollbacks)
			}
		}
		return pass{}, &PartialDeployError{QID: qid, Mode: mode, Failed: p.steps[k-1].Switch, Outcomes: p.steps, Undone: undone}
	}

	inc(ok)
	atomic.AddUint64(&r.obs.deferredRemoves, deferred)
	if len(p.steps) > 0 {
		f := 0.9 + 0.2*r.rng.Float64()
		p.delay = time.Duration(float64(p.slowest) * f)
	}
	if next == nil {
		r.obs.unpublish(qid)
		if r.svc != nil {
			r.svc.SetExpected(qid, nil)
		}
		return p, nil
	}
	if p.first != nil && (prev == nil || resized) {
		r.obs.publish(qid, next.Query.Name, mode, p.first.Footprint())
	}
	if r.svc != nil {
		if resized {
			// Announce the transition BEFORE re-pinning: the first epoch
			// the restarted banks reach must read Partial.
			r.svc.NoteResize(qid)
		}
		// Expected contributors are the switches that own state for this
		// query, not every member: a placement partition holding only
		// pass-through or cross-read stages never snapshots a bank, and
		// pinning it as expected would mark every merged epoch
		// Partial/Missing forever.
		contributors := make([]string, 0, len(next.names))
		for _, n := range next.names {
			if r.have[n][qid].owns {
				contributors = append(contributors, n)
			}
		}
		r.svc.SetExpected(qid, contributors)
	}
	return p, nil
}

// specOf resolves w against the fleet.
func (r *Remote) specOf(w Want) (*spec, error) {
	s := &spec{Want: w, mode: "replicate", names: w.Targets}
	for i, n := range w.Targets {
		if slices.Contains(w.Targets[:i], n) {
			return nil, fmt.Errorf("controller: agent %q targeted twice", n)
		}
	}
	switch {
	case w.StagesPer != 0 || w.Parts != nil:
		if w.StagesPer <= 0 {
			return nil, fmt.Errorf("controller: non-positive stages per switch")
		}
		if len(w.Parts) == 0 {
			return nil, fmt.Errorf("controller: empty placement")
		}
		s.mode, s.names = "placement", make([]string, 0, len(w.Parts))
		for n := range w.Parts {
			s.names = append(s.names, n)
		}
		sort.Strings(s.names)
	case w.Sharded:
		s.mode = "shard"
	}
	if len(s.names) == 0 {
		s.names = r.names
	}
	return s, nil
}

// Deploy makes w the desired state of query qid and reconciles the
// fleet to it. qid 0 deploys a new query and returns the qid assigned
// to it; an existing qid keeps its query and its mode and moves to w's
// width and per-switch assignment, contacting only the switches whose
// share changed. The change is transactional: on any failure the
// touched switches are rolled back to the previous state and a typed
// *PartialDeployError is returned. The duration is the modeled
// operation latency (per-switch batches run in parallel; the slowest
// bounds the delay).
func (r *Remote) Deploy(qid int, w Want) (int, time.Duration, error) {
	qid, p, err := r.deploy(qid, w)
	return qid, p.delay, err
}

// deploy is Deploy returning the whole pass: what Newton records.
func (r *Remote) deploy(qid int, w Want) (int, pass, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next, err := r.specOf(w)
	if err != nil {
		return 0, pass{}, err
	}
	if qid == 0 {
		qid = r.nextQID
	} else if cur, ok := r.want[qid]; !ok {
		return 0, pass{}, fmt.Errorf("controller: no deployment %d", qid)
	} else if cur.mode != next.mode {
		return 0, pass{}, fmt.Errorf("controller: deployment %d is a %s deploy, not a %s one", qid, cur.mode, next.mode)
	} else {
		next.Query = cur.Query
	}
	p, err := r.set(qid, next)
	if err != nil {
		return 0, pass{}, err
	}
	if qid == r.nextQID {
		r.nextQID++
	}
	return qid, p, nil
}

// Install deploys a new query whole on the named agents (all agents
// when names is nil): Deploy of a replicated Want.
func (r *Remote) Install(q *query.Query, width uint32, names []string) (int, time.Duration, error) {
	return r.Deploy(0, Want{Query: q, Width: width, Targets: names})
}

// Remove uninstalls a deployment from every agent holding it.
func (r *Remote) Remove(qid int) error {
	_, err := r.remove(qid)
	return err
}

// remove is Remove returning the modeled operation latency too.
func (r *Remote) remove(qid int) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.want[qid]; !ok {
		return 0, fmt.Errorf("controller: no deployment %d", qid)
	}
	p, err := r.set(qid, nil)
	return p.delay, err
}

// SetOffline flips a switch's reachability as the health monitor sees
// it. Marking a switch back online reconciles it first, so it rejoins
// the fleet holding exactly what want asks of it — the removes deferred
// while it was away are simply have minus want. A failure leaves the
// remaining difference recorded (a later SetOffline(false) or
// Reconverge retries it) and is returned to the caller.
func (r *Remote) SetOffline(name string, offline bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.agents[name]; !ok {
		return fmt.Errorf("controller: no agent %q", name)
	}
	r.offline[name] = offline
	if offline {
		return nil
	}
	err := r.resync([]string{name}, false)
	if err != nil {
		inc(&r.obs.removeFailures)
	}
	return err
}

// Reconverge re-drives every online agent toward the desired state,
// verifying instead of trusting have: each agent is offered its
// programs again, and an "already installed" answer counts as
// convergence (the ops are level-triggered). This is the controller's
// answer to an agent restart that lost its installs — call it whenever
// an agent reappears. It returns the first hard error.
func (r *Remote) Reconverge() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.resync(r.names, true); err != nil {
		inc(&r.obs.reconvergeFailures)
		return err
	}
	inc(&r.obs.reconverges)
	return nil
}

// resync reconciles every query the named switches hold or should
// hold, in qid order, stopping at the first failure.
func (r *Remote) resync(names []string, verify bool) error {
	var qids []int
	for qid := range r.want {
		qids = append(qids, qid)
	}
	for _, n := range names {
		for qid := range r.have[n] {
			qids = append(qids, qid)
		}
	}
	sort.Ints(qids)
	for _, qid := range slices.Compact(qids) {
		for _, s := range r.reconcile(qid, names, verify, false).steps {
			if s.Err != nil {
				return fmt.Errorf("controller: reconcile query %d: %w", qid, s.Err)
			}
			if _, wanted := r.want[qid].shareOf(s.Switch); !wanted {
				inc(&r.obs.flushedRemoves)
			}
		}
	}
	return nil
}

// Tick rolls the evaluation window on every reachable agent (the
// controller's 100 ms heartbeat), in sorted order. Offline agents are
// skipped — their windows roll again when they rejoin. A failing agent
// does not stop the others: epochs must not skew across the healthy
// fleet because one switch died. The failures are returned joined.
func (r *Remote) Tick() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for _, n := range r.names {
		if r.offline[n] {
			continue
		}
		if err := r.agents[n].NextEpoch(); err != nil {
			inc(&r.obs.tickFailures)
			errs = append(errs, fmt.Errorf("controller: agent %q: %w", n, err))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	inc(&r.obs.ticks)
	return nil
}

// AttachTelemetry switches the controller's report path from polling to
// push: agents stream reports and epoch snapshots to svc, and Collect
// drains svc's deduplicated alert stream instead of round-robin polling
// every agent. Deploy/Remove/Tick keep using the control channel.
func (r *Remote) AttachTelemetry(svc *telemetry.Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.svc = svc
}

// Collect returns new reports: the merged push-based stream when a
// telemetry service is attached, otherwise a poll over every online
// agent, in sorted order like Tick. A failing agent does not stop the
// poll: a batch an agent handed over has left its switch for good (its
// drain cursor moved), so what was drained is returned beside the
// joined failures, never dropped because of them.
func (r *Remote) Collect() ([]dataplane.Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.svc != nil {
		return r.svc.DrainReports(), nil
	}
	var out []dataplane.Report
	var errs []error
	for _, n := range r.names {
		if r.offline[n] {
			continue
		}
		rs, err := r.agents[n].DrainReports()
		if err != nil {
			errs = append(errs, fmt.Errorf("controller: agent %q: %w", n, err))
			continue
		}
		out = append(out, rs...)
	}
	return out, errors.Join(errs...)
}
