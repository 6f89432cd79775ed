package experiments

import (
	"net"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
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

// countConn wraps a conn and counts frames and bytes written through
// it. Every frame is exactly two writes (header + body) on both the
// control channel's and the telemetry stream's framing, so frames =
// writes/2.
type countConn struct {
	net.Conn
	writes, bytes *atomic.Uint64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(uint64(n))
	return n, err
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

	for _, mode := range exportModes {
		var writes, bytes atomic.Uint64
		wrap := func(c net.Conn) net.Conn { return countConn{c, &writes, &bytes} }

		var svc *telemetry.Service
		if mode.name != "poll" {
			svc = telemetry.NewService(telemetry.ServiceConfig{Window: time.Duration(window)})
		}

		agents := map[string]*rpc.Client{}
		var sws []*dataplane.Switch
		var exps []*telemetry.Exporter
		for i := 0; i < nSwitches; i++ {
			layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<14)
			if err != nil {
				panic(err)
			}
			eng := modules.NewEngine(layout)
			sw := dataplane.NewSwitch(string(rune('a'+i)), 16, modules.StageCapacity())
			sw.AddRoute(0, 0, 1)
			sw.Monitor = eng
			agent := rpc.NewAgent(sw, eng)
			server, client := net.Pipe()
			go agent.HandleConn(wrap(server))
			agents[sw.ID] = rpc.NewClient(wrap(client))
			sws = append(sws, sw)

			if svc != nil {
				sconn, econn := net.Pipe()
				go svc.HandleConn(sconn)
				exp, err := telemetry.NewExporter(wrap(econn), telemetry.ExporterConfig{
					SwitchID: sw.ID, Policy: telemetry.PolicyBlock,
					KeyframeEvery: mode.keyframes,
				})
				if err != nil {
					panic(err)
				}
				exp.AttachAgent(agent, eng)
				exps = append(exps, exp)
			}
		}

		ctl := controller.NewRemote(agents, 1)
		if svc != nil {
			ctl.AttachTelemetry(svc)
		}
		if _, _, err := ctl.Install(query.Q1(40), 1<<12, nil); err != nil {
			panic(err)
		}
		writes.Store(0) // measure steady state, not query installation
		bytes.Store(0)

		reports := 0
		sync := func() {
			if svc == nil {
				rs, err := ctl.Collect() // polls every agent, empty or not
				if err != nil {
					panic(err)
				}
				reports += len(rs)
			} else {
				for i, sw := range sws {
					exps[i].Export(sw.DrainReports())
				}
			}
			if err := ctl.Tick(); err != nil {
				panic(err)
			}
		}
		next := window
		for _, pkt := range tr.Packets {
			for pkt.TS >= next {
				sync()
				next += window
			}
			for _, sw := range sws {
				sw.Process(pkt)
			}
		}
		sync()
		var encodeNs uint64
		for _, exp := range exps {
			if err := exp.Flush(); err != nil {
				panic(err)
			}
			encodeNs += exp.Stats().EncodeNs
			exp.Close()
		}
		if svc != nil {
			rs, _ := ctl.Collect()
			reports += len(rs)
			svc.Close()
		}
		for _, c := range agents {
			c.Close()
		}

		row := ExportRow{Mode: mode.name, Reports: reports,
			Frames: writes.Load() / 2, Bytes: bytes.Load(), EncodeNs: encodeNs}
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
