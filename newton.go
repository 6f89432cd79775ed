// Package newton is an intent-driven network traffic monitoring system —
// a from-scratch Go reproduction of "Newton: Intent-Driven Network
// Traffic Monitoring" (CoNEXT 2020).
//
// Operators express monitoring intents as Spark-style stream queries
// over packets (filter, map, distinct, reduce). Newton compiles a query
// into table rules for a fixed layout of reconfigurable data-plane
// modules, so queries install, update, and remove at runtime without
// ever reloading the pipeline or disturbing forwarding:
//
//	q := newton.NewQuery("syn_flood").
//		Filter(newton.Eq(newton.FieldProto, newton.ProtoTCP),
//			newton.Eq(newton.FieldTCPFlags, newton.FlagSYN)).
//		Map(newton.FieldDstIP).
//		ReduceCount(newton.FieldDstIP).
//		FilterResultGt(40).
//		Build()
//
//	topo, h1, h2 := newton.LinearTopology(3)
//	net, _ := newton.NewNetwork(topo, newton.NetworkConfig{})
//	ctl := newton.NewController(net, 1)
//	dep, delay, _ := ctl.Install(newton.Deploy{Query: q})
//	// ... traffic flows; reports mirror to the analyzer ...
//	ctl.Remove(dep.QID)
//
// The package is a facade over the internal subsystems: the query
// language and the nine evaluation queries, the rule compiler
// (Algorithm 1 with Opt.1–3), the PISA data-plane simulator with the
// K/H/S/R module layout, cross-switch query execution with the 12-byte
// result snapshot header, resilient placement (Algorithm 2), the
// reference analyzer, and the experiment harness that regenerates every
// table and figure of the paper's evaluation.
package newton

import (
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// Core query-language types.
type (
	// Query is a compiled-ready monitoring intent.
	Query = query.Query
	// QueryBuilder assembles queries fluently.
	QueryBuilder = query.Builder
	// Predicate is one filter comparison.
	Predicate = query.Predicate
	// FieldID names one field of the global header-field set.
	FieldID = fields.ID
	// FieldMask selects and derives operation keys.
	FieldMask = fields.Mask
)

// Data-plane and network types.
type (
	// Program is a compiled query: module configurations plus rules.
	Program = modules.Program
	// CompileOptions tunes compilation (optimizations, sketch geometry,
	// sharding).
	CompileOptions = compiler.Options
	// CompileStats summarizes a program's footprint.
	CompileStats = compiler.Stats
	// Report is one monitoring message mirrored to the analyzer.
	Report = dataplane.Report
	// Network is a simulated deployment of Newton switches.
	Network = netsim.Network
	// NetworkConfig sizes the switches.
	NetworkConfig = netsim.Config
	// Topology is the network graph.
	Topology = topology.Topology
	// Controller drives runtime query operations.
	Controller = controller.Newton
	// SonataController is the reboot-based baseline controller.
	SonataController = controller.Sonata
	// Deploy describes a deployment request.
	Deploy = controller.Spec
	// Deployment records an installed query.
	Deployment = controller.Deployment
	// Placement maps switches to query partitions.
	Placement = placement.Placement
	// Packet is the simulator's packet model.
	Packet = packet.Packet
	// Trace is a generated workload with ground truth.
	Trace = trace.Trace
	// TraceConfig parameterizes workload generation.
	TraceConfig = trace.Config
	// Collector consolidates mirrored reports.
	Collector = analyzer.Collector
	// ReferenceEngine evaluates queries exactly in software.
	ReferenceEngine = analyzer.Engine
	// Alert is one reference-engine detection.
	Alert = analyzer.Alert
)

// Deployment modes.
const (
	// ModeReplicate installs the whole query on every target switch.
	ModeReplicate = controller.Replicate
	// ModeShard key-shards state across switches (cross-switch
	// execution pooling their memory).
	ModeShard = controller.Shard
	// ModePartition slices the query over switches via resilient
	// placement.
	ModePartition = controller.Partition
)

// Global header fields usable in queries.
const (
	FieldTimestamp = fields.Timestamp
	FieldInPort    = fields.InPort
	FieldSrcIP     = fields.SrcIP
	FieldDstIP     = fields.DstIP
	FieldProto     = fields.Proto
	FieldSrcPort   = fields.SrcPort
	FieldDstPort   = fields.DstPort
	FieldTCPFlags  = fields.TCPFlags
	FieldPktLen    = fields.PktLen
	FieldTTL       = fields.TTL
)

// Protocol and TCP-flag constants.
const (
	ProtoTCP = packet.ProtoTCP
	ProtoUDP = packet.ProtoUDP
	FlagSYN  = packet.FlagSYN
	FlagACK  = packet.FlagACK
	FlagFIN  = packet.FlagFIN
	FlagRST  = packet.FlagRST
)

// NewQuery starts a query with the default 100 ms window.
func NewQuery(name string) *QueryBuilder { return query.New(name) }

// ParseQuery builds a query from the textual intent DSL, e.g.
//
//	newton.ParseQuery("ddos", "filter(proto == udp) | map(dip, sip) | "+
//		"distinct(dip, sip) | map(dip) | reduce(dip, sum) | filter(result > 40)")
func ParseQuery(name, src string) (*Query, error) { return query.Parse(name, src) }

// Predicate constructors.
var (
	// Eq builds field == v.
	Eq = query.Eq
	// Gt builds field > v.
	Gt = query.Gt
	// Lt builds field < v.
	Lt = query.Lt
	// MaskEq builds (field & mask) == v.
	MaskEq = query.MaskEq
)

// Result is the pseudo-field referencing the running query result.
const Result = query.Result

// KeepFields builds a mask selecting the given fields at full width.
func KeepFields(ids ...FieldID) FieldMask { return fields.Keep(ids...) }

// PrefixMask selects the top plen bits of one field as the operation key
// (e.g. a /16 of an address).
func PrefixMask(f FieldID, plen int) FieldMask {
	return FieldMask{}.WithBits(f, fields.Prefix(f, plen))
}

// The nine evaluation queries of the paper (Table 2), threshold-
// parameterized.
var (
	Q1 = query.Q1
	Q2 = query.Q2
	Q3 = query.Q3
	Q4 = query.Q4
	Q5 = query.Q5
	Q6 = query.Q6
	Q7 = query.Q7
	Q8 = query.Q8
	Q9 = query.Q9
)

// AllQueries returns Q1–Q9 at their default thresholds.
func AllQueries() []*Query { return query.All() }

// QueryByName returns one of the nine queries ("q1".."q9").
func QueryByName(name string) (*Query, error) { return query.ByName(name) }

// Compile lowers a query to module rules. DefaultCompileOptions enables
// every composition optimization.
func Compile(q *Query, o CompileOptions) (*Program, error) { return compiler.Compile(q, o) }

// DefaultCompileOptions enables Opt.1–3 with the evaluation's default
// sketch geometry.
func DefaultCompileOptions() CompileOptions { return compiler.AllOpts() }

// MeasureProgram reports a compiled program's primitives, modules,
// stages, and rules.
func MeasureProgram(q *Query, p *Program) CompileStats { return compiler.Measure(q, p) }

// NewNetwork builds a simulated network of Newton switches over a
// topology.
func NewNetwork(t *Topology, cfg NetworkConfig) (*Network, error) { return netsim.New(t, cfg) }

// NewController builds the Newton controller for a network; seed drives
// the latency jitter model.
func NewController(net *Network, seed int64) *Controller { return controller.NewNewton(net, seed) }

// NewSonataController builds the reboot-based baseline controller.
func NewSonataController(net *Network, seed int64) *SonataController {
	return controller.NewSonata(net, seed)
}

// Topology constructors.
var (
	// LinearTopology builds h1—s1—…—sN—h2 and returns the host IDs.
	LinearTopology = topology.Linear
	// FatTreeTopology builds a k-ary fat-tree.
	FatTreeTopology = topology.FatTree
	// ISPTopology builds the North-America backbone abstraction.
	ISPTopology = topology.ISPBackbone
)

// GenerateTrace synthesizes a workload with ground truth; overlays add
// attack traffic (see the trace package's overlay types re-exported
// below).
var GenerateTrace = trace.Generate

// Attack overlays for GenerateTrace.
type (
	// SYNFlood floods a victim with half-open connections.
	SYNFlood = trace.SYNFlood
	// UDPFlood floods a victim from many spoofed sources.
	UDPFlood = trace.UDPFlood
	// PortScan probes many ports on a victim.
	PortScan = trace.PortScan
	// SSHBrute hammers a victim's SSH port.
	SSHBrute = trace.SSHBrute
	// Slowloris opens many near-idle connections.
	Slowloris = trace.Slowloris
	// DNSNoTCP stages reflection targets.
	DNSNoTCP = trace.DNSNoTCP
	// SuperSpreader contacts many distinct destinations.
	SuperSpreader = trace.SuperSpreader
)

// NewCollector consolidates reports into per-window flagged keys.
func NewCollector(window time.Duration, keys FieldMask) *Collector {
	return analyzer.NewCollector(uint64(window), keys)
}

// NewReferenceEngine builds the exact software evaluator for a query
// (ground truth).
func NewReferenceEngine(q *Query) *ReferenceEngine { return analyzer.NewEngine(q) }

// PlaceResilient runs Algorithm 2: partition a query of totalStages over
// switches with stagesPerSwitch stages, covering all possible paths from
// the monitored edge switches.
func PlaceResilient(t *Topology, edges []int, totalStages, stagesPerSwitch int) (Placement, int, error) {
	return placement.Place(t, edges, totalStages, stagesPerSwitch)
}
