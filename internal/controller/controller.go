// Package controller implements the Newton controller: it compiles
// traffic-monitoring queries, decides where their rules go (replicated,
// key-sharded, or partitioned via resilient placement), and installs,
// removes, and updates them in running switches — purely through table
// rule operations, never touching forwarding.
//
// It also implements the Sonata baseline controller, whose query updates
// reload the switch P4 program and interrupt forwarding (Fig. 10).
package controller

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
)

// Mode selects how a query's rules spread over switches.
type Mode int

const (
	// Replicate installs the whole query on every target switch (the
	// sole-query-execution baseline and the Fig. 13 comparison point).
	Replicate Mode = iota
	// Shard key-shards the stateful banks across the target switches:
	// cross-switch execution that pools their register memory (§5.1).
	//
	// The target switches must all sit on the monitored traffic's
	// forwarding path (the paper's testbed is a line for exactly this
	// reason): a key whose owner switch is off-path is never counted.
	// On multipath topologies, shard across the switches of one path —
	// or use Partition mode, whose resilient placement covers every
	// possible path.
	Shard
	// Partition slices the query into stage partitions and places them
	// with the resilient placement algorithm (§5.2).
	Partition
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Replicate:
		return "replicate"
	case Shard:
		return "shard"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec describes one deployment request.
type Spec struct {
	Query *query.Query
	Mode  Mode

	// Width overrides the per-row register width (0 = compiler default).
	Width uint32

	// Switches are the target switch IDs for Replicate and Shard (nil =
	// every switch in the network).
	Switches []int

	// StagesPerSwitch (Partition mode) is the module stage budget per
	// switch; EdgeSwitches are the monitored traffic's first hops.
	StagesPerSwitch int
	EdgeSwitches    []int
}

// Deployment records an installed query.
type Deployment struct {
	QID      int
	Query    *query.Query
	Mode     Mode
	Switches []int // switches holding at least one rule
	Rules    int   // total rules installed network-wide
	Parts    int   // partitions (1 unless Partition mode)

	Placement placement.Placement // Partition mode only
}

// Newton is the Newton controller over a simulated network: the planner
// that turns a Spec into the fleet's desired state (switch ids become
// node names, Partition mode runs the resilient placement) in front of a
// Remote whose agents are the network's own engines. Every install,
// remove, rollback and qid is Remote's.
type Newton struct {
	net *netsim.Network
	r   *Remote

	deployments map[int]*Deployment
}

// local is the in-process agent: one netsim node's engine and data
// plane answering the calls Remote makes on an rpc.Client.
type local struct{ node *netsim.Node }

func (a local) Install(p *modules.Program) error { return a.node.Eng.Install(p) }
func (a local) Remove(qid int) error             { return a.node.Eng.Remove(qid) }

func (a local) NextEpoch() error {
	a.node.Eng.RollEpoch()
	return nil
}

func (a local) DrainReports() ([]dataplane.Report, error) {
	return a.node.DP.DrainReports(), nil
}

// NewNewton builds a controller over a simulated network. The seed
// drives the latency jitter.
func NewNewton(net *netsim.Network, seed int64) *Newton {
	agents := map[string]agent{}
	for _, node := range net.Nodes() {
		agents[node.DP.ID] = local{node}
	}
	return &Newton{net: net, r: newRemote(agents, seed), deployments: map[int]*Deployment{}}
}

// Deployments returns the live deployments by QID.
func (c *Newton) Deployments() map[int]*Deployment { return c.deployments }

// name resolves a switch id to its agent's name.
func (c *Newton) name(sw int) (string, error) {
	node := c.net.Node(sw)
	if node == nil {
		return "", fmt.Errorf("controller: no switch %d", sw)
	}
	return node.DP.ID, nil
}

// Install compiles and deploys a query at runtime. The returned duration
// is the controller-observed operation latency (rule installation is
// batched per switch and switches are programmed in parallel, so the
// slowest switch bounds the delay). Forwarding is never interrupted, and
// a failed install leaves no rule behind on any switch.
func (c *Newton) Install(spec Spec) (*Deployment, time.Duration, error) {
	if spec.Query == nil {
		return nil, 0, fmt.Errorf("controller: nil query")
	}
	dep := &Deployment{Query: spec.Query, Mode: spec.Mode, Parts: 1}
	w := Want{Query: spec.Query, Width: spec.Width}
	switch spec.Mode {
	case Replicate, Shard:
		targets := spec.Switches
		if len(targets) == 0 {
			targets = c.net.Topo.Switches()
		}
		w.Sharded = spec.Mode == Shard
		for _, sw := range targets {
			n, err := c.name(sw)
			if err != nil {
				return nil, 0, err
			}
			w.Targets = append(w.Targets, n)
		}

	case Partition:
		if spec.StagesPerSwitch <= 0 {
			return nil, 0, fmt.Errorf("controller: partition mode needs StagesPerSwitch")
		}
		edges := spec.EdgeSwitches
		if len(edges) == 0 {
			edges = c.net.Topo.EdgeSwitches()
		}
		logical, err := share{width: spec.Width}.programs(spec.Query, 0)
		if err != nil {
			return nil, 0, err
		}
		pl, m, err := placement.Place(c.net.Topo, edges, logical[0].NumStages(), spec.StagesPerSwitch)
		if err != nil {
			return nil, 0, err
		}
		dep.Placement, dep.Parts = pl, m
		w.StagesPer, w.Parts = spec.StagesPerSwitch, make(map[string][]int, len(pl))
		for sw, parts := range pl {
			n, err := c.name(sw)
			if err != nil {
				return nil, 0, err
			}
			w.Parts[n] = parts
		}

	default:
		return nil, 0, fmt.Errorf("controller: unknown mode %v", spec.Mode)
	}

	qid, p, err := c.r.deploy(0, w)
	if err != nil {
		return nil, 0, err
	}
	dep.QID, dep.Rules = qid, p.rules
	for _, step := range p.steps {
		dep.Switches = append(dep.Switches, c.net.Topo.NodeByName(step.Switch))
	}
	c.deployments[qid] = dep
	return dep, p.delay, nil
}

// Remove uninstalls a deployment at runtime.
func (c *Newton) Remove(qid int) (time.Duration, error) {
	delay, err := c.r.remove(qid)
	if err != nil {
		return 0, err
	}
	delete(c.deployments, qid)
	return delay, nil
}

// Update atomically replaces a deployment: the new rules install before
// the old ones retire, so monitoring never gaps and forwarding never
// stops. The returned delay covers both rule batches.
func (c *Newton) Update(qid int, spec Spec) (*Deployment, time.Duration, error) {
	if _, ok := c.deployments[qid]; !ok {
		return nil, 0, fmt.Errorf("controller: no deployment %d", qid)
	}
	dep, dIn, err := c.Install(spec)
	if err != nil {
		return nil, 0, err
	}
	dOut, err := c.Remove(qid)
	if err != nil {
		return nil, 0, err
	}
	return dep, dIn + dOut, nil
}

// Sonata is the baseline controller: compiling queries into the P4
// program means any query change reloads the pipeline, interrupting
// forwarding for the reload plus the time to restore the forwarding
// state (Fig. 10: ~7.5 s base, growing linearly to ~30 s at 60 K
// entries).
type Sonata struct {
	net *netsim.Network
	rng *rand.Rand
}

// Sonata reboot-model constants, calibrated against Fig. 10.
const (
	sonataReload      = 7500 * time.Millisecond
	sonataPerFwdEntry = 375 * time.Microsecond
	sonataJitter      = 0.05
)

// NewSonata builds the baseline controller.
func NewSonata(net *netsim.Network, seed int64) *Sonata {
	return &Sonata{net: net, rng: rand.New(rand.NewSource(seed))}
}

// UpdateQueries changes the query set on a switch the Sonata way: the
// switch reboots into the new P4 program and forwards nothing until the
// pipeline reloads and its fwdEntries forwarding rules are reinstalled.
// The outage is registered with the network simulator starting at the
// current virtual time, and its duration is returned.
func (s *Sonata) UpdateQueries(sw int, fwdEntries int) time.Duration {
	outage := sonataReload + time.Duration(fwdEntries)*sonataPerFwdEntry
	f := 1 - sonataJitter/2 + sonataJitter*s.rng.Float64()
	outage = time.Duration(float64(outage) * f)
	from := s.net.Clock()
	s.net.SetOutage(sw, from, from+uint64(outage))
	return outage
}
