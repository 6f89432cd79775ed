// Package wire holds Newton's binary encodings: a versioned
// little-endian framing, columnar binary codecs for the telemetry
// plane's hot frames (report batches and epoch state-bank snapshots),
// the control channel's request and response messages (control.go),
// and the program encoding an install carries (program.go).
//
// Both streams use the one framing. On the control channel (internal/rpc)
// every request is a KindRequest frame and every response a KindResponse
// frame; a program inside an install is AppendProgram's bytes, decoded by
// DecodeProgram into one backing array per kind of part, and a drain's
// reports are AppendReports' batch. A peer of the former length-framed
// JSON channel fails the header's magic. Only the telemetry hello and
// hello-ack keep length-framed JSON (internal/rpc's WriteFrame and
// ReadFrame); after the hello is acked, every frame on the telemetry
// stream, as on the control channel, is:
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
// over a size gate are flate-compressed (compress/flate's writer) and
// inflated by the package's own decoder.
//
// Each end of a stream keeps its framing memory: a FrameWriter per
// connection holds the header and the compressed output, a FrameReader
// per stream the header, the payload, the inflated payload and the
// Huffman tables of its inflater (inflate.go), and DecodeReportsInto
// decodes into the stream's own report slice. A stream in steady state
// allocates nothing per frame at either end.
//
// Every decode path is total: truncated, oversized, corrupt-CRC, or
// malformed inputs return typed errors, never panic — the fuzz harnesses
// (FuzzWireRoundTrip, FuzzDecodeProgram, FuzzControlFrame) hold the
// codecs to that. A header decides no allocation: a payload's buffer
// grows as its bytes arrive (ReadPayload).
package wire

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Magic identifies a binary frame ("NW" when the two bytes are read in
// wire order).
const Magic = 0x574E

// Version1 is the current wire protocol version, proposed in the JSON
// hello and echoed in the hello-ack.
const Version1 = 1

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// MaxFrame bounds one payload.
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
	// KindRequest carries one control-channel Request (control.go).
	KindRequest Kind = 4
	// KindResponse carries one control-channel Response.
	KindResponse Kind = 5
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
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
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

// FrameWriter frames payloads onto one stream. It keeps the header it
// builds and the compressed output across frames, so a stream in steady
// state writes without allocating. Each frame is exactly two writes,
// header then payload, as is a hello's length and body, so
// byte-counting wrappers see one frame per two writes on either stream.
type FrameWriter struct {
	w    io.Writer
	hdr  [HeaderSize]byte
	zbuf sink // Compress's output, valid until the next Compress
}

// sink is a byte slice a flate writer appends to: append grows a large
// one by a quarter, where a bytes.Buffer would double it.
type sink []byte

func (s *sink) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// NewFrameWriter returns a FrameWriter on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame sends one binary frame and returns the bytes the stream
// took, header included.
func (fw *FrameWriter) WriteFrame(kind Kind, flags Flags, payload []byte) (int, error) {
	if len(payload) > MaxFrame {
		return 0, fmt.Errorf("%w: outbound payload of %d bytes", ErrTooLarge, len(payload))
	}
	n, err := fw.w.Write(AppendHeader(fw.hdr[:0], kind, flags, payload))
	if err != nil {
		return n, err
	}
	m, err := fw.w.Write(payload)
	return n + m, err
}

// WriteFrame sends one binary frame on w.
func WriteFrame(w io.Writer, kind Kind, flags Flags, payload []byte) error {
	_, err := NewFrameWriter(w).WriteFrame(kind, flags, payload)
	return err
}

// deflaters pools flate writers. Building one allocates its whole match
// state, far more than compressing a frame costs, so writers are Reset
// between frames instead; a Reset writer produces exactly the bytes a
// new one would.
var deflaters = sync.Pool{New: func() any {
	// BestSpeed is a valid level: NewWriter cannot fail.
	zw, _ := flate.NewWriter(nil, flate.BestSpeed)
	return zw
}}

// Compress flate-compresses a payload when it is at least gate bytes
// and compression actually shrinks it. The second return reports
// whether the returned slice is compressed (the caller sets
// FlagCompressed accordingly); a compressed result is fw's buffer, valid
// until the next Compress. A gate < 0 disables compression.
func (fw *FrameWriter) Compress(payload []byte, gate int) ([]byte, bool) {
	if gate < 0 || len(payload) < gate {
		return payload, false
	}
	zw := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(zw)
	fw.zbuf = fw.zbuf[:0]
	zw.Reset(&fw.zbuf)
	if _, err := zw.Write(payload); err != nil {
		return payload, false
	}
	if err := zw.Close(); err != nil {
		return payload, false
	}
	if len(fw.zbuf) >= len(payload) {
		return payload, false
	}
	return fw.zbuf, true
}

// Compress is FrameWriter.Compress into a buffer of the caller's own.
func Compress(payload []byte, gate int) ([]byte, bool) {
	return new(FrameWriter).Compress(payload, gate)
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

// FrameReader receives the frames of one stream. It keeps its header,
// payload and inflate buffers and its inflater's tables across frames,
// so a stream in steady state reads without allocating: the buffers grow
// to the largest frame seen and stay with the stream.
type FrameReader struct {
	r        io.Reader
	hdr      [HeaderSize]byte
	payload  []byte // the frame as read off the stream
	inflated []byte // a compressed frame's payload, inflated
	z        inflater
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next receives one frame, validating magic, version, size bound and
// payload CRC, and returns its header and payload — inflated already
// when the header says FlagCompressed. The payload is valid until the
// next call. An inflated payload past MaxFrame is ErrTooLarge (a zip
// bomb is a malformed peer, not an allocation), one that does not
// inflate ErrMalformed.
func (fr *FrameReader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Header{}, nil, err
	}
	hdr, err := ParseHeader(fr.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if fr.payload, err = ReadPayload(fr.r, fr.payload, int(hdr.Length)); err != nil {
		return Header{}, nil, err
	}
	if crc32.Checksum(fr.payload, castagnoli) != hdr.CRC {
		return Header{}, nil, ErrCRC
	}
	if hdr.Flags&FlagCompressed == 0 {
		return hdr, fr.payload, nil
	}
	if fr.inflated, err = fr.z.inflate(fr.inflated, fr.payload); err != nil {
		return Header{}, nil, err
	}
	return hdr, fr.inflated, nil
}

// firstChunk is what a payload read allocates before any of its bytes
// have arrived.
const firstChunk = 4 << 10

// ReadPayload reads the n bytes a frame header announced into buf[:0]
// and returns them, with io.ReadFull's errors. A header decides no
// allocation before its bytes arrive: past buf's capacity the buffer
// grows from firstChunk, at most doubling, only as the stream delivers,
// so a peer that announces MaxFrame and hangs up costs a few KB, while a
// stream whose buffer has grown to its largest frame allocates nothing.
func ReadPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), firstChunk)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// reader is a sticky-error varint cursor over one payload. It refuses
// a varint encoded in more bytes than its value needs: every encoder
// writes minimal varints, so a payload has one encoding.
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
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.err = fmt.Errorf("%w: non-minimal varint", ErrMalformed)
		r.off = len(r.b)
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
