// Package trace generates the packet workloads the evaluation runs on.
//
// The paper evaluates Newton with CAIDA and MAWI traces, which are not
// redistributable. Per the reproduction's substitution rule, this package
// provides seeded synthetic generators whose flow-size distribution
// (Zipf-skewed, heavy-tailed), protocol mix, and packet-size mix mirror
// the published characteristics of those traces, plus attack overlays
// (SYN flood, port scan, UDP DDoS, SSH brute force, Slowloris, DNS
// no-TCP, superspreaders) that give the nine evaluation queries exact,
// known ground truth. Determinism is total given a seed.
package trace

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/newton-net/newton/internal/packet"
)

// Profile selects the background-traffic mix.
type Profile int

const (
	// CAIDA mimics a backbone trace: TCP-dominant, strong Zipf skew.
	CAIDA Profile = iota
	// MAWI mimics the WIDE transit trace: more UDP/DNS, flatter skew.
	MAWI
)

// String returns the profile name.
func (p Profile) String() string {
	if p == MAWI {
		return "MAWI"
	}
	return "CAIDA"
}

type profileParams struct {
	zipfS       float64 // Zipf skew of packets-per-flow
	zipfMax     uint64  // max packets per flow
	tcpFraction float64 // remainder is UDP
	dnsFraction float64 // of UDP flows, fraction to/from port 53
	meanPktLen  int
}

func (p Profile) params() profileParams {
	switch p {
	case MAWI:
		return profileParams{zipfS: 1.1, zipfMax: 2000, tcpFraction: 0.62, dnsFraction: 0.35, meanPktLen: 700}
	default:
		return profileParams{zipfS: 1.3, zipfMax: 5000, tcpFraction: 0.83, dnsFraction: 0.10, meanPktLen: 900}
	}
}

// Config parameterizes a synthetic trace.
type Config struct {
	Seed     int64
	Profile  Profile
	Flows    int           // number of background flows
	Duration time.Duration // virtual span of the trace
}

// Truth records the attack ground truth injected into a trace, keyed by
// the quantity each evaluation query reports.
type Truth struct {
	SYNFloodVictims  map[uint32]bool // Q6 (and Fig. 6's example)
	UDPFloodVictims  map[uint32]bool // Q5
	ScanVictims      map[uint32]bool // Q4 reports hosts being scanned
	SSHBruteVictims  map[uint32]bool // Q2
	SlowlorisVictims map[uint32]bool // Q8
	DNSOnlyHosts     map[uint32]bool // Q9
	SuperSpreaders   map[uint32]bool // Q3
}

func newTruth() *Truth {
	return &Truth{
		SYNFloodVictims:  map[uint32]bool{},
		UDPFloodVictims:  map[uint32]bool{},
		ScanVictims:      map[uint32]bool{},
		SSHBruteVictims:  map[uint32]bool{},
		SlowlorisVictims: map[uint32]bool{},
		DNSOnlyHosts:     map[uint32]bool{},
		SuperSpreaders:   map[uint32]bool{},
	}
}

// Trace is a timestamp-ordered packet sequence plus its ground truth.
type Trace struct {
	Packets []*packet.Packet
	Truth   *Truth
}

// Overlay injects attack traffic into a trace under construction.
type Overlay interface {
	// apply appends packets (with arbitrary timestamps within the
	// duration) and records ground truth.
	apply(g *generator)
	fmt.Stringer
}

type generator struct {
	rng   *rand.Rand
	cfg   Config
	pkts  []*packet.Packet
	truth *Truth
}

// Generate builds a trace from background traffic plus overlays.
func Generate(cfg Config, overlays ...Overlay) *Trace {
	if cfg.Flows < 0 {
		panic("trace: negative flow count")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	g := &generator{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		truth: newTruth(),
	}
	g.background()
	for _, ov := range overlays {
		ov.apply(g)
	}
	compact(g.pkts, deliveryOrder(g.pkts))
	return &Trace{Packets: g.pkts, Truth: g.truth}
}

// emitted is a packet's place in the generator's output: its timestamp
// and the position it was emitted at.
type emitted struct {
	ts  uint64
	pos int
}

// deliveryOrder sorts the packets by timestamp, ties in emit order: what
// a stable sort by timestamp gives, at O(n log n) on a flat key array.
func deliveryOrder(pkts []*packet.Packet) []emitted {
	order := make([]emitted, len(pkts))
	for i, p := range pkts {
		order[i] = emitted{p.TS, i}
	}
	slices.SortFunc(order, func(a, b emitted) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return order
}

// compact rewrites the trace in delivery order into contiguous slabs,
// so that delivery order equals memory order. Generation allocates each
// packet (and its L4 header) individually, in emit order; without
// compaction every delivered packet is a cold-cache pointer chase, which
// dominates per-packet cost at millions of packets per second.
func compact(pkts []*packet.Packet, order []emitted) {
	var nTCP, nUDP int
	for _, p := range pkts {
		if p.TCP != nil {
			nTCP++
		}
		if p.UDP != nil {
			nUDP++
		}
	}
	slab := make([]packet.Packet, len(pkts))
	tcps := make([]packet.TCP, 0, nTCP)
	udps := make([]packet.UDP, 0, nUDP)
	for i, e := range order {
		p := pkts[e.pos]
		slab[i] = *p
		if p.TCP != nil {
			tcps = append(tcps, *p.TCP)
			slab[i].TCP = &tcps[len(tcps)-1]
		}
		if p.UDP != nil {
			udps = append(udps, *p.UDP)
			slab[i].UDP = &udps[len(udps)-1]
		}
	}
	for i := range pkts {
		pkts[i] = &slab[i]
	}
}

// randIP draws an address from one of a handful of /16s so that traffic
// concentrates the way real traces do.
func (g *generator) randIP() uint32 {
	nets := [...]uint32{0x0A00_0000, 0x0A01_0000, 0xAC10_0000, 0xC0A8_0000, 0x0B00_0000}
	return nets[g.rng.Intn(len(nets))] | uint32(g.rng.Intn(1<<16))
}

func (g *generator) randTS() uint64 {
	return uint64(g.rng.Int63n(int64(g.cfg.Duration)))
}

func (g *generator) pktLen(mean int) int {
	// Bimodal: many small (ACK-ish) packets, some near-MTU.
	if g.rng.Float64() < 0.45 {
		return 40 + g.rng.Intn(80)
	}
	l := mean + g.rng.Intn(1400-mean)
	if l > 1400 {
		l = 1400
	}
	return l
}

func (g *generator) emit(ts uint64, src, dst uint32, proto uint8, sport, dport uint16, flags uint8, payload int) {
	p := &packet.Packet{
		TS: ts,
		IP: packet.IPv4{TTL: 64, Proto: proto, Src: src, Dst: dst},
	}
	switch proto {
	case packet.ProtoTCP:
		p.TCP = &packet.TCP{SrcPort: sport, DstPort: dport, Flags: flags, Seq: g.rng.Uint32(), Window: 65535}
	case packet.ProtoUDP:
		p.UDP = &packet.UDP{SrcPort: sport, DstPort: dport}
	}
	p.PayloadLen = payload
	g.pkts = append(g.pkts, p)
}

// background synthesizes cfg.Flows flows with Zipf packet counts.
func (g *generator) background() {
	pp := g.cfg.Profile.params()
	if g.cfg.Flows == 0 {
		return
	}
	zipf := rand.NewZipf(g.rng, pp.zipfS, 2, pp.zipfMax)
	for f := 0; f < g.cfg.Flows; f++ {
		src, dst := g.randIP(), g.randIP()
		n := int(zipf.Uint64()) + 1
		isTCP := g.rng.Float64() < pp.tcpFraction
		if isTCP {
			sport := uint16(g.rng.Intn(60000) + 1024)
			dport := wellKnownTCP[g.rng.Intn(len(wellKnownTCP))]
			g.tcpFlow(src, dst, sport, dport, n, pp.meanPktLen, true)
		} else {
			sport := uint16(g.rng.Intn(60000) + 1024)
			dport := uint16(g.rng.Intn(60000) + 1024)
			if g.rng.Float64() < pp.dnsFraction {
				dport = 53
			}
			base := g.randTS()
			for i := 0; i < n; i++ {
				g.emit(g.jitter(base, i), src, dst, packet.ProtoUDP, sport, dport, 0, g.pktLen(pp.meanPktLen))
			}
		}
	}
}

var wellKnownTCP = []uint16{80, 443, 443, 443, 8080, 25, 993, 8443}

// jitter spaces a flow's packets out from a base timestamp, wrapping
// around the trace duration so long flows spread uniformly instead of
// piling up at the end.
func (g *generator) jitter(base uint64, i int) uint64 {
	ts := base + uint64(i)*uint64(50+g.rng.Intn(5000))*1000 // 50µs–5ms gaps
	return ts % uint64(g.cfg.Duration)
}

// tcpFlow emits a full TCP conversation: handshake, data, teardown. When
// complete is false the handshake never finishes (no final ACK), which
// matters to Q1/Q6/Q7 semantics.
func (g *generator) tcpFlow(src, dst uint32, sport, dport uint16, n, meanLen int, complete bool) {
	base := g.randTS()
	i := 0
	g.emit(g.jitter(base, i), src, dst, packet.ProtoTCP, sport, dport, packet.FlagSYN, 0)
	i++
	g.emit(g.jitter(base, i), dst, src, packet.ProtoTCP, dport, sport, packet.FlagSYN|packet.FlagACK, 0)
	i++
	if !complete {
		return
	}
	g.emit(g.jitter(base, i), src, dst, packet.ProtoTCP, sport, dport, packet.FlagACK, 0)
	i++
	for d := 0; d < n; d++ {
		payload := meanLen
		if meanLen >= 40 {
			payload = g.pktLen(meanLen)
		}
		g.emit(g.jitter(base, i), src, dst, packet.ProtoTCP, sport, dport, packet.FlagACK|packet.FlagPSH, payload)
		i++
	}
	g.emit(g.jitter(base, i), src, dst, packet.ProtoTCP, sport, dport, packet.FlagFIN|packet.FlagACK, 0)
}
