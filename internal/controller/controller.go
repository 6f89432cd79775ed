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

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
)

// Rule-operation latencies, calibrated against Fig. 11: installing a
// small query (Q1, ~12 rules) takes ~5 ms; the largest (~55 rules) stays
// under ~25 ms. Latencies jitter ±10% per batch.
const (
	installBase    = 1500 * time.Microsecond
	installPerRule = 320 * time.Microsecond
	removeBase     = 1200 * time.Microsecond
	removePerRule  = 260 * time.Microsecond
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

// Newton is the Newton controller.
type Newton struct {
	net *netsim.Network
	rng *rand.Rand

	nextQID     int
	deployments map[int]*Deployment

	obs ctlObs
}

// NewNewton builds a controller over a simulated network. The seed
// drives the latency jitter.
func NewNewton(net *netsim.Network, seed int64) *Newton {
	return &Newton{net: net, rng: rand.New(rand.NewSource(seed)), nextQID: 1,
		deployments: map[int]*Deployment{}}
}

// Deployments returns the live deployments by QID.
func (c *Newton) Deployments() map[int]*Deployment { return c.deployments }

func (c *Newton) jitter(d time.Duration) time.Duration {
	f := 0.9 + 0.2*c.rng.Float64()
	return time.Duration(float64(d) * f)
}

// switchTargets resolves a spec's target switch set.
func (c *Newton) switchTargets(spec Spec) []int {
	if len(spec.Switches) > 0 {
		return spec.Switches
	}
	return c.net.Topo.Switches()
}

// Install compiles and deploys a query at runtime. The returned duration
// is the controller-observed operation latency (rule installation is
// batched per switch and switches are programmed in parallel, so the
// slowest switch bounds the delay). Forwarding is never interrupted.
func (c *Newton) Install(spec Spec) (_ *Deployment, delay time.Duration, err error) {
	if spec.Query == nil {
		return nil, 0, fmt.Errorf("controller: nil query")
	}
	qid := c.nextQID
	dep := &Deployment{QID: qid, Query: spec.Query, Mode: spec.Mode}
	maxRules := 0
	var footprintProg *modules.Program

	// A failed install removes the query from the switches it reached.
	defer func() {
		if err == nil {
			return
		}
		inc(&c.obs.deployFailures)
		for _, sw := range dep.Switches {
			if c.net.Node(sw).Eng.Remove(qid) == nil {
				inc(&c.obs.rollbacks)
			} else {
				inc(&c.obs.rollbackFailures)
			}
		}
	}()

	// install compiles one switch's share of the query — each switch needs
	// its own program instances, installs bind register allocations per
	// device — and installs it.
	install := func(sw int, sh share) error {
		node := c.net.Node(sw)
		if node == nil {
			return fmt.Errorf("controller: no switch %d", sw)
		}
		progs, err := sh.programs(spec.Query, qid)
		if err != nil {
			return err
		}
		rules := 0
		for _, p := range progs {
			if err := node.Eng.Install(p); err != nil {
				return err
			}
			rules += p.RuleCount() + 1 // + newton_fin entry
		}
		if footprintProg == nil {
			footprintProg = progs[0]
		}
		dep.Rules += rules
		maxRules = max(maxRules, rules)
		dep.Switches = append(dep.Switches, sw)
		return nil
	}

	switch spec.Mode {
	case Replicate, Shard:
		targets := c.switchTargets(spec)
		for i, sw := range targets {
			sh := share{width: spec.Width}
			if spec.Mode == Shard {
				sh.shard, sh.shards = uint32(i), uint32(len(targets))
			}
			if err := install(sw, sh); err != nil {
				return nil, 0, err
			}
		}
		dep.Parts = 1

	case Partition:
		if spec.StagesPerSwitch <= 0 {
			return nil, 0, fmt.Errorf("controller: partition mode needs StagesPerSwitch")
		}
		edges := spec.EdgeSwitches
		if len(edges) == 0 {
			edges = c.net.Topo.EdgeSwitches()
		}
		logical, err := share{width: spec.Width}.programs(spec.Query, qid)
		if err != nil {
			return nil, 0, err
		}
		footprintProg = logical[0]
		pl, m, err := placement.Place(c.net.Topo, edges, footprintProg.NumStages(), spec.StagesPerSwitch)
		if err != nil {
			return nil, 0, err
		}
		dep.Placement, dep.Parts = pl, m
		for sw, parts := range pl {
			sh := share{width: spec.Width, stagesPer: spec.StagesPerSwitch, parts: parts}
			if err := install(sw, sh); err != nil {
				return nil, 0, err
			}
		}

	default:
		return nil, 0, fmt.Errorf("controller: unknown mode %v", spec.Mode)
	}

	c.nextQID++
	c.deployments[qid] = dep
	inc(&c.obs.deploys)
	if footprintProg != nil {
		c.obs.publish(qid, spec.Query.Name, spec.Mode.String(), footprintProg.Footprint())
	}
	delay = c.jitter(installBase + time.Duration(maxRules)*installPerRule)
	return dep, delay, nil
}

// Remove uninstalls a deployment at runtime.
func (c *Newton) Remove(qid int) (time.Duration, error) {
	dep, ok := c.deployments[qid]
	if !ok {
		return 0, fmt.Errorf("controller: no deployment %d", qid)
	}
	maxRules := 0
	perSwitch := map[int]int{}
	for _, sw := range dep.Switches {
		perSwitch[sw]++
	}
	for sw := range perSwitch {
		if err := c.net.Node(sw).Eng.Remove(qid); err != nil {
			inc(&c.obs.removeFailures)
			return 0, err
		}
	}
	if len(perSwitch) > 0 {
		maxRules = dep.Rules / len(perSwitch)
	}
	delete(c.deployments, qid)
	inc(&c.obs.removes)
	c.obs.unpublish(qid)
	return c.jitter(removeBase + time.Duration(maxRules)*removePerRule), nil
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
