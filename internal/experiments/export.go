package experiments

import (
	"net"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// ExportRow is one export-discipline measurement.
type ExportRow struct {
	Mode     string
	Reports  int     // alerts that reached the analyzer
	Frames   uint64  // wire messages, both channels, both directions
	Bytes    uint64  // wire bytes, both channels, both directions
	PerEpoch float64 // wire bytes per evaluation window
	EncodeNs uint64  // exporter time spent encoding + compressing payloads
}

// ExportResult compares the controller's report-delivery disciplines on
// identical traffic: polling every agent each window over the control
// channel (the paper's baseline), the streaming telemetry plane sending
// every snapshot in full, and the same with delta-encoded snapshots
// between keyframes. Both push modes carry epoch sketch snapshots, which
// buy the analyzer its network-wide merged view — the table prices that
// view per snapshot encoding.
type ExportResult struct {
	Switches, Windows int
	Rows              []ExportRow
}

// Metrics exposes the per-mode wire cost for newton-bench -json, so CI
// can archive the codec comparison across PRs.
func (r *ExportResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"switches": float64(r.Switches),
		"windows":  float64(r.Windows),
	}
	for _, row := range r.Rows {
		m[row.Mode+"_bytes"] = float64(row.Bytes)
		m[row.Mode+"_frames"] = float64(row.Frames)
		m[row.Mode+"_bytes_per_epoch"] = row.PerEpoch
		if row.EncodeNs > 0 {
			m[row.Mode+"_encode_ns"] = float64(row.EncodeNs)
		}
	}
	return m
}

// countConn wraps the switch end of a conn and counts the operations
// and bytes that cross it in either direction. Every frame is exactly
// two writes (header + body) on both the control channel's and the
// telemetry stream's framing, and over net.Pipe exactly two reads at the
// far end, so frames = ops/2.
type countConn struct {
	net.Conn
	ops, bytes *atomic.Uint64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ops.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
}

// Write counts first: a pipe's peer can act on the bytes before it returns.
func (c countConn) Write(p []byte) (int, error) {
	c.ops.Add(1)
	c.bytes.Add(uint64(len(p)))
	return c.Conn.Write(p)
}

// exportModes maps each measured discipline to its exporter's keyframe
// cadence, which the poll mode (no exporter) ignores.
var exportModes = []struct {
	name      string
	keyframes int // 1 disables delta encoding; 0 keeps the default cadence
}{
	{"poll", 0},
	{"binary-push", 1},
	{"binary+delta", 0},
}

// ExportOverhead measures all three disciplines over nSwitches
// replicated switches running Q1 against a SYN-flood trace.
func ExportOverhead(nSwitches int, dur time.Duration) *ExportResult {
	if nSwitches == 0 {
		nSwitches = 3
	}
	if dur == 0 {
		dur = time.Second
	}
	window := uint64(100 * time.Millisecond)
	tr := trace.Generate(trace.Config{Seed: 31, Flows: 600, Duration: dur},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 900})
	res := &ExportResult{Switches: nSwitches, Windows: int(uint64(dur) / window)}

	topo, _, _ := topology.Linear(nSwitches)
	for _, mode := range exportModes {
		var ops, bytes atomic.Uint64
		cfg := fleet.Config{
			Net:     netsim.Config{Stages: 16, ArraySize: 1 << 14},
			Service: telemetry.ServiceConfig{Window: time.Duration(window)},
			Wrap:    func(_ string, c net.Conn) net.Conn { return countConn{c, &ops, &bytes} },
		}
		if mode.name != "poll" {
			cfg.Exporter = &telemetry.ExporterConfig{Policy: telemetry.PolicyBlock, KeyframeEvery: mode.keyframes}
		}
		f, err := fleet.New(topo, cfg)
		if err != nil {
			panic(err)
		}
		if _, _, err := f.Ctl.Install(query.Q1(40), 1<<12, nil); err != nil {
			panic(err)
		}
		ops.Store(0) // measure steady state, not query installation
		bytes.Store(0)

		reports := 0
		sync := func() {
			if f.Svc == nil {
				rs, err := f.Ctl.Collect() // polls every agent, empty or not
				if err != nil {
					panic(err)
				}
				reports += len(rs)
			} else {
				for _, name := range f.Names {
					sw := f.Switches[name]
					sw.Exporter.Export(sw.Node.DP.DrainReports())
				}
			}
			if err := f.Ctl.Tick(); err != nil {
				panic(err)
			}
		}
		// Replicated switches: every one sees every packet, and windows
		// roll on the controller's tick, not the netsim clock.
		next := window
		for _, pkt := range tr.Packets {
			for pkt.TS >= next {
				sync()
				next += window
			}
			for _, name := range f.Names {
				f.Switches[name].Node.DP.Process(pkt)
			}
		}
		sync()
		var encodeNs uint64
		if f.Svc != nil {
			// A closed exporter's bye is read after everything before it was
			// ingested, so the last alerts are there to collect.
			for _, name := range f.Names {
				exp := f.Switches[name].Exporter
				if err := exp.Flush(); err != nil {
					panic(err)
				}
				encodeNs += exp.Stats().EncodeNs
				exp.Close()
			}
			rs, _ := f.Ctl.Collect()
			reports += len(rs)
		}
		frames, wire := ops.Load()/2, bytes.Load() // before hang-ups count as reads
		f.Close()

		row := ExportRow{Mode: mode.name, Reports: reports,
			Frames: frames, Bytes: wire, EncodeNs: encodeNs}
		if res.Windows > 0 {
			row.PerEpoch = float64(row.Bytes) / float64(res.Windows)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the comparison.
func (r *ExportResult) String() string {
	t := &table{header: []string{"Export path", "Alerts", "Wire msgs", "Wire bytes", "Bytes/epoch", "Encode ns"}}
	for _, row := range r.Rows {
		t.add(row.Mode, i2s(row.Reports), i2s(int(row.Frames)), i2s(int(row.Bytes)),
			sci(row.PerEpoch), i2s(int(row.EncodeNs)))
	}
	return "Export overhead: polling vs pushed telemetry, full and delta snapshots (" +
		i2s(r.Switches) + " switches, " + i2s(r.Windows) + " windows)\n" + t.String()
}
