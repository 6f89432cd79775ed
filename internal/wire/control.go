package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/newton-net/newton/internal/dataplane"
)

// The control channel's messages: a controller's Request to a switch
// agent travels as one KindRequest frame, the agent's Response as one
// KindResponse frame.
//
//	request  := byte(call) u64(id) sint(qid) uvarint(drainAck) string(program)
//	response := byte(flags: ok stats) u64(id) uvarint(cursor) string(code)
//	            string(message) stats? reports
//	stats    := uvarint(ruleEntries) uvarint(installed)
//	reports  := AppendReports' batch under stream ID ""
//
// u64 is 8 bytes little-endian, so a frame's length does not depend on
// the request ID a process draws. Every field is written whatever the
// call, every varint is minimal and the flag byte holds only its defined
// bits, so a message has one encoding: what decodes re-encodes to the
// bytes it came from.

// Call names what a Request asks of the agent. The decoder takes any
// byte: an unknown call is the agent's to refuse, in a response.
type Call uint8

const (
	CallInstall Call = 1 + iota // install Program
	CallRemove                  // remove QID
	CallStats                   // rule and program counts
	CallDrain                   // the switch's buffered reports
	CallEpoch                   // end the window
)

// Request is one controller → agent message.
type Request struct {
	Call Call
	// ID identifies the logical call. A client reuses the same ID across
	// retry attempts of one call, so the agent's replay cache can answer
	// a retransmit with the original response instead of executing the
	// operation twice. Zero means "no replay protection".
	ID  uint64
	QID int
	// DrainAck (drains only) acknowledges the highest drain Cursor the
	// client has received.
	DrainAck uint64
	// Program (installs only) is AppendProgram's bytes. A decoded
	// request's Program is the payload's: valid until the next frame.
	Program []byte
}

// Stats is the agent's rule and program accounting.
type Stats struct {
	RuleEntries int
	Installed   int
}

// Response is one agent → controller message.
type Response struct {
	OK     bool
	ID     uint64 // the request's ID, echoed
	Cursor uint64 // a drain's cursor
	Code   string // a refusal's machine-checkable class
	Error  string // a refusal's message
	// HasStats marks a stats reply; Stats is carried only then.
	HasStats bool
	Stats    Stats
	// Reports is a drain's batch. A decoded response's Reports reuses the
	// slice the Response held.
	Reports []dataplane.Report
}

// Response flag bits.
const (
	respOK = 1 << iota
	respStats
)

// AppendRequest encodes req.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, byte(req.Call))
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	dst = appendSint(dst, int64(req.QID))
	dst = binary.AppendUvarint(dst, req.DrainAck)
	dst = binary.AppendUvarint(dst, uint64(len(req.Program)))
	return append(dst, req.Program...)
}

// DecodeRequest decodes payload into req. Every refusal is
// ErrTruncated or ErrMalformed.
func DecodeRequest(req *Request, payload []byte) error {
	r := reader{b: payload}
	req.Call = Call(r.byte())
	req.ID = r.u64()
	req.QID = int(unzigzag(r.uvarint()))
	req.DrainAck = r.uvarint()
	req.Program = r.bytes(r.length())
	if err := r.done(); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if len(req.Program) == 0 {
		req.Program = nil
	}
	return nil
}

// AppendResponse encodes resp. Its reports must be masked, as the data
// plane mirrors them.
func AppendResponse(dst []byte, resp *Response) []byte {
	var flags byte
	if resp.OK {
		flags |= respOK
	}
	if resp.HasStats {
		flags |= respStats
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	dst = binary.AppendUvarint(dst, resp.Cursor)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Code)))
	dst = append(dst, resp.Code...)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Error)))
	dst = append(dst, resp.Error...)
	if resp.HasStats {
		dst = binary.AppendUvarint(dst, uint64(resp.Stats.RuleEntries))
		dst = binary.AppendUvarint(dst, uint64(resp.Stats.Installed))
	}
	return AppendReports(dst, "", resp.Reports)
}

// DecodeResponse decodes payload into resp, its reports into
// resp.Reports[:0]. A report run naming the switch knownID names takes
// knownID's string, so a client that passes the switch ID it decoded
// last makes no string for a drain of the same switch. Every refusal is
// ErrTruncated or ErrMalformed.
func DecodeResponse(resp *Response, payload []byte, knownID string) error {
	r := reader{b: payload}
	flags := r.byte()
	if flags&^(respOK|respStats) != 0 && r.err == nil {
		r.err = fmt.Errorf("%w: response flags %#x", ErrMalformed, flags)
	}
	resp.OK, resp.HasStats = flags&respOK != 0, flags&respStats != 0
	resp.ID = r.u64()
	resp.Cursor = r.uvarint()
	resp.Code = string(r.bytes(r.length()))
	resp.Error = string(r.bytes(r.length()))
	resp.Stats = Stats{}
	if resp.HasStats {
		resp.Stats = Stats{RuleEntries: int(r.uvarint()), Installed: int(r.uvarint())}
	}
	if r.err != nil {
		return fmt.Errorf("response: %w", r.err)
	}
	var err error
	if resp.Reports, err = decodeReports(resp.Reports, r.b[r.off:], "", knownID); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return nil
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
