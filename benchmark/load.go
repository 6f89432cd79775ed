package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/trace"
)

// window is the evaluation window every intent and the analyzer's alert
// dedup use (the paper's 100 ms epoch). A cycle's packets are stamped
// inside one window and the next cycle moves one window on, so alerts
// for the same keys are fresh every cycle.
const window = 100 * time.Millisecond

// load is one workload's packet set with its ground truth. The program
// under test sees only pkts; everything else is the benchmark's answer
// key.
type load struct {
	pkts []*packet.Packet
	hash uint64 // order-sensitive digest of the generated 5-tuples

	// victims maps a catalog query (q1..q9) to the keys an injected
	// attack must make it alert on every cycle (trace.Truth).
	victims map[string]map[uint64]bool
	// exact holds, per catalog query, the reference engine's verdict over
	// the same packets: per-key final values and the keys it flags. An
	// alert outside victims is explained only if the reference flags it.
	exact map[string]*refResult

	// sampled are the keys operator reads ask about: q1's heaviest, the
	// victims first, then whatever benign keys carry the most SYNs.
	sampled []uint64

	generateS float64 // time spent generating, reported as trace.generate_s
}

type refResult struct {
	counts  map[uint64]int64
	flagged map[uint64]bool
}

// mix32 is a bijection on uint32 (the murmur3 finaliser): the flood
// workload spoofs sources from a counter through it, so no source
// repeats within 2^32 packets.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85EBCA6B
	x ^= x >> 13
	x *= 0xC2B2AE35
	x ^= x >> 16
	return x
}

// pickHosts draws n distinct host addresses in 10/8, away from the
// overlay-reserved 0xD0.. ranges and from the alert probes' 0xE0.. range.
func pickHosts(rng *rand.Rand, n int) []uint32 {
	seen := map[uint32]bool{}
	out := make([]uint32, 0, n)
	for len(out) < n {
		ip := 0x0A80_0000 | uint32(rng.Intn(1<<23))
		if !seen[ip] {
			seen[ip] = true
			out = append(out, ip)
		}
	}
	return out
}

// generate builds the workload's packet set from the seed: the same seed
// gives the same packets, a different seed different ones, and the
// packet count is always exactly d.packets so every cycle is the same
// amount of work.
func generate(d *dials, seed int64) *load {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	var attack *trace.Trace
	if d.flood {
		attack = floodOverlays(rng, seed)
	} else {
		attack = attackOverlays(rng, seed, d.attackScale)
	}
	l := &load{victims: truthVictims(attack.Truth)}

	// Benign background fills the set up to the fixed size.
	nBenign := d.packets - len(attack.Packets)
	if nBenign < 0 {
		panic("benchmark: attack overlays exceed the workload's packet count")
	}
	benign := benignFlows(rng, d.flows, nBenign)
	// Interleave: attack packets land at seeded positions among the
	// benign ones, both keeping their own order.
	l.pkts = make([]*packet.Packet, 0, d.packets)
	a, b := attack.Packets, benign
	for len(a)+len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && rng.Intn(len(a)+len(b)) < len(a)) {
			l.pkts, a = append(l.pkts, a[0]), a[1:]
		} else {
			l.pkts, b = append(l.pkts, b[0]), b[1:]
		}
	}
	compact(l.pkts)
	l.stamp(0, d)

	h := fnv.New64a()
	var buf [16]byte
	for _, p := range l.pkts {
		f := p.Flow()
		binary.LittleEndian.PutUint32(buf[0:], f.Src)
		binary.LittleEndian.PutUint32(buf[4:], f.Dst)
		binary.LittleEndian.PutUint16(buf[8:], f.SPort)
		binary.LittleEndian.PutUint16(buf[10:], f.DPort)
		buf[12] = f.Proto
		binary.LittleEndian.PutUint16(buf[13:], uint16(p.PayloadLen))
		if p.TCP != nil {
			buf[15] = p.TCP.Flags
		}
		h.Write(buf[:])
	}
	l.hash = h.Sum64()

	l.exact = map[string]*refResult{}
	for i, q := range d.catalog() {
		eng := analyzer.NewEngine(q)
		eng.Run(l.pkts)
		r := &refResult{counts: eng.FinalCounts()[0], flagged: eng.FlaggedKeys()}
		if r.counts == nil {
			r.counts = map[uint64]int64{}
		}
		l.exact[catalogKey(i)] = r
	}
	q1 := l.exact["q1"].counts
	for k := range q1 {
		l.sampled = append(l.sampled, k)
	}
	sort.Slice(l.sampled, func(i, j int) bool {
		a, b := l.sampled[i], l.sampled[j]
		if q1[a] != q1[b] {
			return q1[a] > q1[b]
		}
		return a < b
	})
	l.sampled = l.sampled[:min(8, len(l.sampled))]
	l.generateS = time.Since(start).Seconds()
	return l
}

// benignFlows builds n packets of background over the given number of
// flows. Every seed gives the same mix — five TCP conversations
// (handshake, data, FIN) to one UDP exchange, every flow the same
// length give or take a packet — and only the addresses, ports, sizes
// and start times differ: the per-packet work a switch does depends on which
// queries a packet matches, and a benchmark whose mix moved with the
// seed would measure the draw. (trace.Generate's Zipf background has a
// tail heavy enough to move packets per second by several percent
// between seeds.)
func benignFlows(rng *rand.Rand, flows, n int) []*packet.Packet {
	if flows == 0 || n == 0 {
		return nil
	}
	nets := [...]uint32{0x0A00_0000, 0x0A01_0000, 0xAC10_0000, 0xC0A8_0000, 0x0B00_0000}
	host := func() uint32 { return nets[rng.Intn(len(nets))] | uint32(rng.Intn(1<<16)) }
	services := [...]uint16{80, 443, 443, 8080, 25, 993}
	perFlow := make([][]*packet.Packet, flows)
	for f := range perFlow {
		k := n / flows
		if f < n%flows {
			k++
		}
		src, dst := host(), host()
		sport := uint16(1024 + rng.Intn(60000))
		for i := 0; i < k; i++ {
			p := &packet.Packet{IP: packet.IPv4{TTL: 64, Src: src, Dst: dst}}
			if f%6 == 5 {
				p.IP.Proto = packet.ProtoUDP
				p.UDP = &packet.UDP{SrcPort: sport, DstPort: 1024 + uint16(f)}
				p.PayloadLen = 64 + rng.Intn(1200)
			} else {
				p.IP.Proto = packet.ProtoTCP
				p.TCP = &packet.TCP{SrcPort: sport, DstPort: services[f%len(services)], Window: 65535}
				switch {
				case i == 0:
					p.TCP.Flags = packet.FlagSYN
				case i == 1: // the server's answer travels the other way
					p.IP.Src, p.IP.Dst = dst, src
					p.TCP.SrcPort, p.TCP.DstPort = p.TCP.DstPort, sport
					p.TCP.Flags = packet.FlagSYN | packet.FlagACK
				case i == 2:
					p.TCP.Flags = packet.FlagACK
				case i == k-1:
					p.TCP.Flags = packet.FlagFIN | packet.FlagACK
				default:
					p.TCP.Flags = packet.FlagACK | packet.FlagPSH
					p.PayloadLen = 64 + rng.Intn(1200)
				}
			}
			perFlow[f] = append(perFlow[f], p)
		}
	}
	// Each flow starts at a random moment and lives for a fiftieth of the
	// window, so its data follows its SYN closely — as in a real trace,
	// where a window holds many short conversations rather than two
	// thousand that all stay half open (which the signed merges q6 and q8
	// would, rightly, take for an attack).
	type timed struct {
		at float64
		p  *packet.Packet
	}
	all := make([]timed, 0, n)
	for _, ps := range perFlow {
		start := rng.Float64()
		for i, p := range ps {
			all = append(all, timed{start + float64(i)/float64(50*len(ps)), p})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([]*packet.Packet, n)
	for i := range all {
		out[i] = all[i].p
	}
	return out
}

// compact rewrites the set into contiguous slabs so that delivery order
// is memory order, as trace.Generate does for its own traces: otherwise
// every processed packet is a cold-cache pointer chase, and the
// benchmark would time the allocator's layout.
func compact(pkts []*packet.Packet) {
	slab := make([]packet.Packet, len(pkts))
	tcps := make([]packet.TCP, 0, len(pkts))
	udps := make([]packet.UDP, 0, len(pkts))
	for i, p := range pkts {
		slab[i] = *p
		if p.TCP != nil {
			tcps = append(tcps, *p.TCP)
			slab[i].TCP = &tcps[len(tcps)-1]
		}
		if p.UDP != nil {
			udps = append(udps, *p.UDP)
			slab[i].UDP = &udps[len(udps)-1]
		}
		pkts[i] = &slab[i]
	}
}

// stamp prepares the packet set for one cycle, outside every timed
// section: virtual timestamps move into the cycle's own window, result
// snapshots left by the previous pass are stripped, and on the flood
// workload every source is re-spoofed so each packet is a 5-tuple no
// switch has seen.
func (l *load) stamp(cycle uint64, d *dials) {
	base := cycle * uint64(window)
	step := uint64(window) * 9 / 10 / uint64(len(l.pkts))
	ctr := uint32(cycle) * uint32(len(l.pkts))
	for i, p := range l.pkts {
		p.TS = base + uint64(i)*step
		p.SP = nil
		if d.flood {
			p.IP.Src = mix32(ctr + uint32(i))
		}
	}
}

// attackOverlays injects one victim per catalog query: the
// steady-state "few alerts" mix. The distinct-counting attacks are
// three times their threshold, because a Bloom row that the benign
// flows have half filled hides up to a quarter of a victim's distinct
// keys; the plain SYN flood needs no such margin. scale shrinks
// everything for the small (1024-packet) workloads.
func attackOverlays(rng *rand.Rand, seed int64, scale int) *trace.Trace {
	h := pickHosts(rng, 6)
	n := func(x int) int { return x / scale }
	return trace.Generate(trace.Config{Seed: seed ^ 0x5eed, Duration: window},
		trace.SYNFlood{Victim: h[0], Packets: n(64)},
		trace.PortScan{Scanner: h[1], Victim: h[2], Ports: n(120)},
		trace.UDPFlood{Victim: h[3], Sources: n(120)},
		trace.SSHBrute{Victim: h[4], Attempts: n(60)},
		trace.SuperSpreader{Source: h[5], Fanout: n(120)},
		trace.DNSNoTCP{Hosts: 4, Queries: n(16)},
	)
}

// Flood shape: a carpet SYN flood — floodVictims hosts, floodSYNs
// spoofed-source SYNs each — plus floodScans hosts port-scanned on
// floodPorts ports: 8192 packets per switch, every one a new 5-tuple, a
// quarter of a switch's dispatch cache. A switch reports a key once,
// when its count crosses the threshold, so the report load is the
// number of victims: about a thousand reports per switch per cycle (a
// few of the 1022 victims are carried past the crossing value by keys
// that share their slots), each duplicated by the other switch.
const (
	floodVictims = 1020
	floodSYNs    = 8
	floodScans   = 2
	floodPorts   = 16
)

func floodOverlays(rng *rand.Rand, seed int64) *trace.Trace {
	h := pickHosts(rng, floodVictims+2*floodScans)
	var ov []trace.Overlay
	for i := 0; i < floodVictims; i++ {
		ov = append(ov, trace.SYNFlood{Victim: h[i], Packets: floodSYNs})
	}
	for i := 0; i < floodScans; i++ {
		ov = append(ov, trace.PortScan{
			Scanner: h[floodVictims+2*i], Victim: h[floodVictims+2*i+1], Ports: floodPorts})
	}
	return trace.Generate(trace.Config{Seed: seed ^ 0xf100d, Duration: window}, ov...)
}

// truthVictims re-keys trace.Truth by the catalog query each attack is
// the ground truth for.
func truthVictims(t *trace.Truth) map[string]map[uint64]bool {
	widen := func(m map[uint32]bool) map[uint64]bool {
		out := map[uint64]bool{}
		for k := range m {
			out[uint64(k)] = true
		}
		return out
	}
	return map[string]map[uint64]bool{
		"q1": widen(t.SYNFloodVictims),
		"q2": widen(t.SSHBruteVictims),
		"q3": widen(t.SuperSpreaders),
		"q4": widen(t.ScanVictims),
		"q5": widen(t.UDPFloodVictims),
		"q6": widen(t.SYNFloodVictims),
		"q8": widen(t.SlowlorisVictims),
		"q9": widen(t.DNSOnlyHosts),
	}
}
