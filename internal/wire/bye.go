package wire

import (
	"encoding/json"
	"fmt"
)

// ExportStats is the telemetry exporter's counter snapshot: what
// Exporter.Stats returns, its obs series read, and the bye frame carries.
type ExportStats struct {
	Enqueued  uint64 `json:"enqueued"`  // reports offered to the export ring
	Exported  uint64 `json:"exported"`  // reports written to the stream
	Dropped   uint64 `json:"dropped"`   // reports lost to ring eviction or stream errors
	Overflows uint64 `json:"overflows"` // ring-full bursts (one per burst of blocks or evictions)
	Batches   uint64 `json:"batches"`   // report frames written
	Snapshots uint64 `json:"snapshots"` // state-bank snapshot frames written

	Reconnects uint64 `json:"reconnects,omitempty"` // analyzer streams re-established

	WireBytes        uint64 `json:"wire_bytes,omitempty"`        // bytes written to the telemetry stream, headers included
	PayloadBytes     uint64 `json:"payload_bytes,omitempty"`     // encoded payload bytes before compression
	CompressedFrames uint64 `json:"compressed_frames,omitempty"` // frames whose payload the flate gate shrank
	DeltaBanks       uint64 `json:"delta_banks,omitempty"`       // snapshot banks sent as sparse deltas
	KeyframeBanks    uint64 `json:"keyframe_banks,omitempty"`    // snapshot banks sent in full
	EncodeNs         uint64 `json:"encode_ns,omitempty"`         // nanoseconds spent encoding wire payloads
}

// The bye frame closes a stream with the exporter's final counters. It
// is sent once per stream, so its payload stays JSON: ExportStats can
// grow fields without a wire version bump, and the framing (CRC, size
// bound) still protects it.

// AppendBye encodes a stream-closing stats payload.
func AppendBye(dst []byte, st ExportStats) ([]byte, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return append(dst, body...), nil
}

// DecodeBye decodes a stream-closing stats payload.
func DecodeBye(payload []byte) (ExportStats, error) {
	var st ExportStats
	if err := json.Unmarshal(payload, &st); err != nil {
		return ExportStats{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return st, nil
}
