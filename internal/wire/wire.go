// Package wire is the binary telemetry wire protocol: a versioned
// little-endian framing plus columnar binary codecs for the telemetry
// plane's hot frames (report batches and epoch state-bank snapshots).
//
// The control channel and the telemetry hello/hello-ack negotiation
// keep the length-framed JSON encoding (internal/rpc) — it is the
// bootstrap both sides of any version speak. After the hello is acked,
// every frame on the stream is:
//
//	offset  size  field
//	0       2     magic 0x574E ("NW", little-endian)
//	2       1     version (1)
//	3       1     frame kind
//	4       1     flags (bit0 compressed, bit1 delta snapshot)
//	5       3     reserved (zero)
//	8       4     payload length, little-endian
//	12      4     CRC-32C of the wire payload, little-endian
//	16      n     payload
//
// Payloads are varint-packed columnar encodings (reports.go,
// snapshot.go); snapshot payloads may delta-encode each bank against
// the previous epoch's values, with full keyframes every K epochs and
// after every reconnect so replay never depends on lost state. Payloads
// over a size gate are flate-compressed (stdlib only).
//
// Every decode path is total: truncated, oversized, corrupt-CRC, or
// malformed inputs return typed errors, never panic — the fuzz harness
// (FuzzWireRoundTrip) holds the codec to that.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Magic identifies a binary telemetry frame ("NW" when the two bytes
// are read in wire order).
const Magic = 0x574E

// Version1 is the current wire protocol version, proposed in the JSON
// hello and echoed in the hello-ack.
const Version1 = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// MaxFrame bounds one payload, mirroring the control channel's limit.
const MaxFrame = 8 << 20

// Kind classifies a binary frame.
type Kind uint8

const (
	// KindReports carries a columnar batch of mirrored reports.
	KindReports Kind = 1
	// KindSnapshot carries one epoch's state-bank snapshots, full or
	// delta-encoded against the previous epoch.
	KindSnapshot Kind = 2
	// KindBye closes a stream, carrying the exporter's final counters
	// (JSON payload — once per stream, evolution beats compactness).
	KindBye Kind = 3
)

// String names the frame kind.
func (k Kind) String() string {
	switch k {
	case KindReports:
		return "reports"
	case KindSnapshot:
		return "snapshot"
	case KindBye:
		return "bye"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flags carries per-frame encoding options.
type Flags uint8

const (
	// FlagCompressed marks the payload as flate-compressed.
	FlagCompressed Flags = 1 << 0
	// FlagDelta marks a snapshot frame whose banks may be delta-encoded
	// against the previous epoch (a non-keyframe).
	FlagDelta Flags = 1 << 1
)

// Typed decode errors. Every malformed input maps onto one of these so
// the stream layer can classify failures without string matching.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrTooLarge   = errors.New("wire: frame exceeds size limit")
	ErrCRC        = errors.New("wire: payload CRC mismatch")
	ErrTruncated  = errors.New("wire: truncated payload")
	ErrMalformed  = errors.New("wire: malformed payload")
	// ErrDeltaBase is returned when a delta snapshot references a base
	// epoch the decoder does not hold (a dropped or reordered frame);
	// the stream resynchronizes at the encoder's next keyframe.
	ErrDeltaBase = errors.New("wire: delta snapshot base epoch not held")
)

// Header is one decoded frame header.
type Header struct {
	Version uint8
	Kind    Kind
	Flags   Flags
	Length  uint32
	CRC     uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendHeader serializes a frame header for the given payload.
func AppendHeader(dst []byte, kind Kind, flags Flags, payload []byte) []byte {
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint16(h[0:2], Magic)
	h[2] = Version1
	h[3] = uint8(kind)
	h[4] = uint8(flags)
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[12:16], crc32.Checksum(payload, castagnoli))
	return append(dst, h[:]...)
}

// WriteFrame sends one binary frame: header, then payload. Exactly two
// writes, matching the control channel's header+body discipline so
// byte-counting wrappers see one frame per two writes.
func WriteFrame(w io.Writer, kind Kind, flags Flags, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: outbound payload of %d bytes", ErrTooLarge, len(payload))
	}
	hdr := AppendHeader(make([]byte, 0, HeaderSize), kind, flags, payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ParseHeader decodes and validates one frame header.
func ParseHeader(h []byte) (Header, error) {
	if len(h) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if binary.LittleEndian.Uint16(h[0:2]) != Magic {
		return Header{}, ErrBadMagic
	}
	hdr := Header{
		Version: h[2],
		Kind:    Kind(h[3]),
		Flags:   Flags(h[4]),
		Length:  binary.LittleEndian.Uint32(h[8:12]),
		CRC:     binary.LittleEndian.Uint32(h[12:16]),
	}
	if hdr.Version != Version1 {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, hdr.Version)
	}
	if hdr.Length > MaxFrame {
		return Header{}, fmt.Errorf("%w: inbound payload of %d bytes", ErrTooLarge, hdr.Length)
	}
	return hdr, nil
}

// ReadFrame receives one binary frame, validating magic, version, size
// bound, and payload CRC. The returned payload is still compressed if
// the header says so — Decompress it before decoding.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Header{}, nil, err
	}
	hdr, err := ParseHeader(h[:])
	if err != nil {
		return Header{}, nil, err
	}
	payload := make([]byte, hdr.Length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Header{}, nil, err
	}
	if crc32.Checksum(payload, castagnoli) != hdr.CRC {
		return Header{}, nil, ErrCRC
	}
	return hdr, payload, nil
}

// deflater is one reusable compressor: a flate writer and the buffer it
// writes into. Building a flate.Writer allocates its whole match state,
// far more than compressing a frame costs, so writers are pooled and
// Reset between frames; a Reset writer produces exactly the bytes a new
// one would.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	d := &deflater{}
	// BestSpeed is a valid level: NewWriter cannot fail.
	d.zw, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
	return d
}}

// inflaters pools flate readers, which Decompress re-targets with
// flate.Resetter instead of building one per frame.
var inflaters = sync.Pool{New: func() any { return flate.NewReader(nil) }}

// Compress flate-compresses a payload when it is at least gate bytes
// and compression actually shrinks it. The second return reports
// whether the returned slice is compressed (the caller sets
// FlagCompressed accordingly); a compressed result is the caller's own.
// A gate < 0 disables compression.
func Compress(payload []byte, gate int) ([]byte, bool) {
	if gate < 0 || len(payload) < gate {
		return payload, false
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.zw.Reset(&d.buf)
	if _, err := d.zw.Write(payload); err != nil {
		return payload, false
	}
	if err := d.zw.Close(); err != nil {
		return payload, false
	}
	if d.buf.Len() >= len(payload) {
		return payload, false
	}
	return bytes.Clone(d.buf.Bytes()), true
}

// Decompress inflates a compressed payload into a fresh slice.
func Decompress(payload []byte) ([]byte, error) { return DecompressInto(nil, payload) }

// DecompressInto inflates a compressed payload into dst[:0], grown as
// needed, and returns it — for a stream that keeps one buffer across
// frames. It refuses to expand past MaxFrame (a zip bomb is a malformed
// peer, not an allocation).
func DecompressInto(dst, payload []byte) ([]byte, error) {
	zr := inflaters.Get().(io.Reader)
	defer inflaters.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(payload), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	out := dst[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if len(out) > MaxFrame {
			return nil, fmt.Errorf("%w: decompressed payload exceeds %d bytes", ErrTooLarge, MaxFrame)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
}

// reader is a sticky-error varint cursor over one payload.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.off = len(r.b)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// length reads a uvarint that sizes a subsequent collection, bounding
// it by the bytes actually left so a hostile count cannot drive a huge
// allocation before the truncation is discovered.
func (r *reader) length() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b)-r.off)
	}
	return nil
}

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
