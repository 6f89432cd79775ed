package telemetry

import (
	"fmt"

	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/wire"
)

// RegisterObs exposes the exporter's ring and stream accounting in reg,
// labeled with switch=SwitchID. All series are callback-backed reads of
// the exporter's existing counters.
func (e *Exporter) RegisterObs(reg *obs.Registry) {
	sw := obs.L("switch", e.cfg.SwitchID)
	reg.GaugeFunc("newton_export_ring_depth",
		"Reports currently buffered in the export ring.",
		func() float64 { return float64(e.ring.len()) }, sw)
	stat := func(get func(s wire.ExportStats) uint64) func() uint64 {
		return func() uint64 { return get(e.Stats()) }
	}
	reg.CounterFunc("newton_export_enqueued_total",
		"Reports accepted into the export ring.",
		stat(func(s wire.ExportStats) uint64 { return s.Enqueued }), sw)
	reg.CounterFunc("newton_export_exported_total",
		"Reports pushed to the analyzer.",
		stat(func(s wire.ExportStats) uint64 { return s.Exported }), sw)
	reg.CounterFunc("newton_export_dropped_total",
		"Reports lost to ring eviction or stream errors.",
		stat(func(s wire.ExportStats) uint64 { return s.Dropped }), sw)
	reg.CounterFunc("newton_export_overflows_total",
		"Ring-full bursts (one per burst, not per blocked or evicted report).",
		stat(func(s wire.ExportStats) uint64 { return s.Overflows }), sw)
	reg.CounterFunc("newton_export_batches_total",
		"Report frames pushed to the analyzer.",
		stat(func(s wire.ExportStats) uint64 { return s.Batches }), sw)
	reg.CounterFunc("newton_export_snapshots_total",
		"Epoch state-bank snapshot frames pushed.",
		stat(func(s wire.ExportStats) uint64 { return s.Snapshots }), sw)
	reg.CounterFunc("newton_export_reconnects_total",
		"Telemetry stream re-establishments.",
		stat(func(s wire.ExportStats) uint64 { return s.Reconnects }), sw)
	reg.CounterFunc("newton_export_wire_bytes_total",
		"Bytes written to the telemetry stream, frame headers included.",
		stat(func(s wire.ExportStats) uint64 { return s.WireBytes }), sw)
	reg.CounterFunc("newton_export_payload_bytes_total",
		"Encoded frame bytes before compression (what the stream would cost uncompressed).",
		stat(func(s wire.ExportStats) uint64 { return s.PayloadBytes }), sw)
	reg.CounterFunc("newton_export_compressed_frames_total",
		"Frames whose payload the flate size gate shrank.",
		stat(func(s wire.ExportStats) uint64 { return s.CompressedFrames }), sw)
	reg.CounterFunc("newton_export_delta_banks_total",
		"Snapshot banks sent as sparse deltas against the previous epoch.",
		stat(func(s wire.ExportStats) uint64 { return s.DeltaBanks }), sw)
	reg.CounterFunc("newton_export_keyframe_banks_total",
		"Snapshot banks sent in full (keyframes and delta fallbacks).",
		stat(func(s wire.ExportStats) uint64 { return s.KeyframeBanks }), sw)
	reg.CounterFunc("newton_export_encode_ns_total",
		"Nanoseconds spent encoding and compressing wire payloads.",
		stat(func(s wire.ExportStats) uint64 { return s.EncodeNs }), sw)
}

// heldBytesSeries is the one analyzer family with a series per agent.
const heldBytesSeries = "newton_analyzer_codec_held_bytes"

// registerAgentObs adds switch id's series to reg. Never called under
// s.mu: exposition holds the registry's lock while a callback takes mu.
func (s *Service) registerAgentObs(reg *obs.Registry, id string) {
	reg.GaugeFunc(heldBytesSeries,
		"Bytes the agent stream's snapshot decoder holds between frames (bitmap + nonzero registers per bank, held and spare).",
		func() float64 {
			wi, _ := s.AgentWire(id)
			return float64(wi.HeldBytes)
		}, obs.L("switch", id))
}

// RegisterObs exposes the analyzer service's merge accounting in reg.
// Unlabeled — one analyzer per registry — but for the per-agent series,
// which are added as agents first connect and leave with ForgetAgent.
func (s *Service) RegisterObs(reg *obs.Registry) {
	s.mu.Lock()
	s.reg = reg
	known := make([]string, 0, len(s.agents))
	for id := range s.agents {
		known = append(known, id)
	}
	s.mu.Unlock()
	for _, id := range known {
		s.registerAgentObs(reg, id)
	}
	stat := func(get func(st ServiceStats) uint64) func() uint64 {
		return func() uint64 { return get(s.Stats()) }
	}
	reg.GaugeFunc("newton_analyzer_agents",
		"Agents known to the analyzer.",
		func() float64 { return float64(s.Stats().Agents) })
	reg.GaugeFunc("newton_analyzer_live_agents",
		"Agents with an open telemetry stream right now.",
		func() float64 { return float64(s.Stats().LiveAgents) })
	reg.GaugeFunc("newton_analyzer_tracked_agents",
		"Switches with resident per-agent bookkeeping (shrinks via ForgetAgent).",
		func() float64 { return float64(s.TrackedAgents()) })
	reg.GaugeFunc("newton_analyzer_tracked_queries",
		"Queries with resident merge state (shrinks via SetExpected(nil), ForgetAgent and the aging of learned membership).",
		func() float64 { return float64(s.Stats().Queries) })
	reg.CounterFunc("newton_analyzer_reports_total",
		"Raw reports ingested (pre-dedup).",
		stat(func(st ServiceStats) uint64 { return st.Reports }))
	reg.CounterFunc("newton_analyzer_duplicate_alerts_total",
		"Reports suppressed by network-wide dedup.",
		stat(func(st ServiceStats) uint64 { return st.DuplicateAlerts }))
	reg.CounterFunc("newton_analyzer_pending_dropped_total",
		"Deduplicated alerts dropped undrained (DrainReports holds the newest 65536).",
		stat(func(st ServiceStats) uint64 { return st.PendingDropped }))
	reg.CounterFunc("newton_analyzer_stream_errors_total",
		"Agent streams that ended any way but a bye or a peer close (refused hello, bad magic, CRC, decode).",
		stat(func(st ServiceStats) uint64 { return st.StreamErrors }))
	reg.CounterFunc("newton_analyzer_snapshots_merged_total",
		"Snapshot frames merged into network-wide banks.",
		stat(func(st ServiceStats) uint64 { return st.Snapshots }))
	reg.CounterFunc("newton_analyzer_duplicate_snapshots_total",
		"Snapshot frames replaying banks their switch had already delivered for that epoch (skipped, not merged twice).",
		stat(func(st ServiceStats) uint64 { return st.DuplicateSnapshots }))
	reg.CounterFunc("newton_analyzer_subscriber_drops_total",
		"Events lost to slow subscribers.",
		stat(func(st ServiceStats) uint64 { return st.SubscriberDrops }))
	reg.CounterFunc("newton_analyzer_reconnects_total",
		"Agent streams re-established after a drop.",
		stat(func(st ServiceStats) uint64 { return st.Reconnects }))
	reg.CounterFunc("newton_analyzer_epoch_gaps_total",
		"Snapshot epochs skipped across all agents.",
		stat(func(st ServiceStats) uint64 { return st.EpochGaps }))
	reg.CounterFunc("newton_analyzer_partial_epochs_total",
		"Superseded (query, epoch) merges missing expected contributors.",
		stat(func(st ServiceStats) uint64 { return st.PartialEpochs }))
	reg.CounterFunc("newton_analyzer_wire_bytes_total",
		"Telemetry stream bytes ingested across agents, frame headers included.",
		stat(func(st ServiceStats) uint64 { return st.WireBytes }))
	reg.CounterFunc("newton_analyzer_raw_bytes_total",
		"Uncompressed cost of the frames ingested (compression ratio = wire/raw).",
		stat(func(st ServiceStats) uint64 { return st.RawBytes }))
	reg.CounterFunc("newton_analyzer_delta_frames_total",
		"Snapshot frames that arrived delta-encoded.",
		stat(func(st ServiceStats) uint64 { return st.DeltaFrames }))
	reg.CounterFunc("newton_analyzer_chain_breaks_total",
		"Delta snapshots dropped for a missing base epoch (resynced at next keyframe).",
		stat(func(st ServiceStats) uint64 { return st.ChainBreaks }))
	reg.CounterFunc("newton_analyzer_width_transitions_total",
		"Epochs flagged as straddling a sketch width resize.",
		stat(func(st ServiceStats) uint64 { return st.WidthTransitions }))
	reg.CounterFunc("newton_analyzer_geometry_conflicts_total",
		"Same-epoch bank geometry conflicts resolved by replacement.",
		stat(func(st ServiceStats) uint64 { return st.GeometryConflicts }))
	reg.GaugeFunc("newton_analyzer_dedup_keys",
		fmt.Sprintf("Alert-dedup keys resident (the sets of the %d most recently touched windows).", keepAlertWindows),
		func() float64 { return float64(s.Stats().DedupKeys) })
	reg.GaugeFunc("newton_analyzer_dedup_bytes",
		"Bytes held by the alert-dedup sets, recycled ones included (open-addressed tables and entry arenas).",
		func() float64 { return float64(s.Stats().DedupBytes) })
	reg.GaugeFunc("newton_analyzer_merged_bytes",
		"Bytes held by the retained merged rows, recycled ones included (bitmap + nonzero sums).",
		func() float64 { return float64(s.Stats().MergedBytes) })
}
