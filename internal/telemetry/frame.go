// Package telemetry is Newton's streaming telemetry plane: the
// push-based export path that replaces poll-only report draining. A
// switch-side Exporter drains mirrored reports and epoch-boundary
// state-bank snapshots into a bounded ring, batches them, and pushes
// CRC-framed binary messages (internal/wire) over a dedicated TCP stream
// with explicit backpressure; an analyzer-side Service accepts many agent
// streams concurrently, merges per-switch sketch banks network-wide
// (Count-Min rows counter-wise, Bloom rows bitwise), deduplicates
// threshold alerts across switches, and serves merged results to
// subscribers.
//
// This is the software half the paper's evaluation assumes (switches
// "mirror" reports and result snapshots to a software analyzer, §5/§6.4)
// and Sonata builds as a streaming system: data-plane tuples in,
// network-wide answers out.
package telemetry

// The handshake that opens every stream, in the control channel's
// length-framed JSON (rpc.WriteFrame/rpc.ReadFrame): the version check
// on a peer nothing is known about yet. Every frame after it is
// internal/wire's — the stream has one data encoding (DESIGN.md §15).
const (
	// FrameHello opens a stream: the agent announces its switch ID and
	// the wire protocol version it speaks.
	FrameHello = "hello"
	// FrameHelloAck is the service's answer, granting the version. A
	// hello it cannot grant gets no answer: the stream is closed.
	FrameHelloAck = "hello_ack"
)

// Frame is one handshake message.
type Frame struct {
	Type     string `json:"type"`
	SwitchID string `json:"switch_id,omitempty"`
	// Wire is the internal/wire version the agent proposes (hello) or
	// the service grants (hello-ack).
	Wire int `json:"wire,omitempty"`
}

// Codec and CodecBinary are a one-value shim: the stream has one
// codec and nothing selects it, but benchmark/fleet.go still writes
// `Codec: telemetry.CodecBinary` and a PR that changes program code may
// not edit benchmark/. The next benchmark-archetype PR drops that line
// and deletes these two and ExporterConfig.Codec (ROADMAP item 2).
type Codec int

// CodecBinary is the only codec, and the zero value.
const CodecBinary Codec = 0
