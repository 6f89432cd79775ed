package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
)

// controlGoldenPath holds one control frame a line: a label, then the
// frame's bytes, header included, in hex.
const controlGoldenPath = "testdata/control.golden"

// controlMessage is one golden control frame's message: a request or a
// response.
type controlMessage struct {
	label string
	req   *Request
	resp  *Response
}

// frame encodes m as the frame the control channel sends.
func (m controlMessage) frame() []byte {
	if m.req != nil {
		payload := AppendRequest(nil, m.req)
		return append(AppendHeader(nil, KindRequest, 0, payload), payload...)
	}
	payload := AppendResponse(nil, m.resp)
	return append(AppendHeader(nil, KindResponse, 0, payload), payload...)
}

// controlMessages is what the golden file pins: every request call, and
// the responses an agent gives — ok, a classified refusal, stats, an
// empty drain and a drain with reports from two switches.
func controlMessages() []controlMessage {
	prog := AppendProgram(nil, &modules.Program{QID: 3, Name: "golden", Branches: []*modules.BranchProgram{
		{Ops: []*modules.Op{{Kind: modules.ModK, Stage: 1, K: &modules.KConfig{}}}}}})
	const id = 0xA1B2C3D4_00000007
	dst, prefix := fields.Keep(fields.DstIP), fields.Mask{}.WithBits(fields.SrcIP, fields.Prefix(fields.SrcIP, 24))
	var k1, k2 fields.Vector
	k1[fields.DstIP], k2[fields.SrcIP] = 0x0A0000AA, 0x0A000100
	reports := []dataplane.Report{
		{SwitchID: "s1", QueryID: 3, TS: 1000, Keys: k1, KeyMask: dst, State: 41, Global: 2},
		{SwitchID: "s1", QueryID: 3, TS: 990, Keys: k1, KeyMask: dst, State: 42, Global: 2},
		{SwitchID: "s2", QueryID: 4, TS: 1200, Keys: k2, KeyMask: prefix, State: 7},
	}
	return []controlMessage{
		{label: "request/install", req: &Request{Call: CallInstall, ID: id, Program: prog}},
		{label: "request/remove", req: &Request{Call: CallRemove, ID: id + 1, QID: 3}},
		{label: "request/stats", req: &Request{Call: CallStats, ID: id + 2}},
		{label: "request/drain", req: &Request{Call: CallDrain, ID: id + 3, DrainAck: 5}},
		{label: "request/epoch", req: &Request{Call: CallEpoch, ID: id + 4}},
		{label: "response/ok", resp: &Response{OK: true, ID: id}},
		{label: "response/refused", resp: &Response{ID: id + 1, Code: "not_installed",
			Error: "modules: query 3 not installed"}},
		{label: "response/stats", resp: &Response{OK: true, ID: id + 2, HasStats: true,
			Stats: Stats{RuleEntries: 17, Installed: 2}}},
		{label: "response/drain-empty", resp: &Response{OK: true, ID: id + 3, Cursor: 6}},
		{label: "response/drain", resp: &Response{OK: true, ID: id + 3, Cursor: 7, Reports: reports}},
	}
}

// TestControlFramesGolden holds every control message to the frame
// recorded in controlGoldenPath byte for byte, and each golden frame,
// read and decoded, to the message under reflect.DeepEqual. -update
// rewrites the file.
func TestControlFramesGolden(t *testing.T) {
	msgs := controlMessages()
	if *update {
		var b bytes.Buffer
		for _, m := range msgs {
			fmt.Fprintln(&b, m.label, hex.EncodeToString(m.frame()))
		}
		if err := os.WriteFile(controlGoldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(controlGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for ; sc.Scan(); n++ {
		if n >= len(msgs) {
			t.Fatalf("%s has more lines than there are messages (%d)", controlGoldenPath, len(msgs))
		}
		m := msgs[n]
		label, h, _ := strings.Cut(sc.Text(), " ")
		if want := hex.EncodeToString(m.frame()); label != m.label || h != want {
			t.Fatalf("line %d:\n got %s %s\nwant %s %s", n+1, m.label, want, label, h)
		}
		raw, _ := hex.DecodeString(h)
		hdr, payload, err := NewFrameReader(bytes.NewReader(raw)).Next()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if m.req != nil {
			var got Request
			if hdr.Kind != KindRequest {
				t.Fatalf("%s: a %v frame", label, hdr.Kind)
			}
			if err := DecodeRequest(&got, payload); err != nil || !reflect.DeepEqual(&got, m.req) {
				t.Fatalf("%s: decoded %+v, %v", label, got, err)
			}
			continue
		}
		var got Response
		if hdr.Kind != KindResponse {
			t.Fatalf("%s: a %v frame", label, hdr.Kind)
		}
		if err := DecodeResponse(&got, payload, ""); err != nil || !reflect.DeepEqual(&got, m.resp) {
			t.Fatalf("%s: decoded %+v, %v", label, got, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("%s has %d lines, there are %d messages", controlGoldenPath, n, len(msgs))
	}
}

// TestDecodeResponseKeepsItsReports: a response decoded into the same
// Response reuses its report slice, so a drain of a steady batch size
// decodes without growing it, and an empty drain leaves no stale report.
func TestDecodeResponseKeepsItsReports(t *testing.T) {
	var resp Response
	msgs := controlMessages()
	full, empty := AppendResponse(nil, msgs[len(msgs)-1].resp), AppendResponse(nil, msgs[len(msgs)-2].resp)
	if err := DecodeResponse(&resp, full, ""); err != nil || len(resp.Reports) != 3 {
		t.Fatalf("%d reports, %v", len(resp.Reports), err)
	}
	backing := &resp.Reports[:1][0]
	if err := DecodeResponse(&resp, empty, ""); err != nil || len(resp.Reports) != 0 {
		t.Fatalf("empty drain: %d reports, %v", len(resp.Reports), err)
	}
	if err := DecodeResponse(&resp, full, ""); err != nil || &resp.Reports[0] != backing {
		t.Fatalf("the second decode did not reuse the slice (%v)", err)
	}
}

// TestDecodeResponseReusesKnownID: a drain's first run naming the switch
// knownID names takes knownID's string, and a later run of that switch
// the previous run's; a run of another switch gets its own string.
func TestDecodeResponseReusesKnownID(t *testing.T) {
	msgs := controlMessages()
	full := AppendResponse(nil, msgs[len(msgs)-1].resp) // runs of s1, then s2
	known := strings.Clone("s1")
	var resp Response
	if err := DecodeResponse(&resp, full, known); err != nil || len(resp.Reports) != 3 {
		t.Fatalf("%d reports, %v", len(resp.Reports), err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	rs := resp.Reports
	if !same(rs[0].SwitchID, known) || !same(rs[1].SwitchID, known) || rs[2].SwitchID != "s2" || same(rs[2].SwitchID, known) {
		t.Fatalf("switch IDs %q %q %q: the s1 runs do not share the known string", rs[0].SwitchID, rs[1].SwitchID, rs[2].SwitchID)
	}
	if err := DecodeResponse(&resp, full, "s2"); err != nil || resp.Reports[0].SwitchID != "s1" {
		t.Fatalf("a known ID of another switch: %+v, %v", resp.Reports[0], err)
	}
}

// FuzzControlFrame throws bytes at both control decoders: the first
// byte's parity picks the request or the response decoder, the rest is
// the payload. Decoding is total, a refusal is ErrTruncated or
// ErrMalformed, and a payload that decodes re-encodes to its own bytes.
func FuzzControlFrame(f *testing.F) {
	for _, m := range controlMessages() {
		frame := m.frame()
		sel := byte(0)
		if m.resp != nil {
			sel = 1
		}
		f.Add(append([]byte{sel}, frame[HeaderSize:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		payload := data[1:]
		var err error
		var again []byte
		if data[0]%2 == 0 {
			var req Request
			if err = DecodeRequest(&req, payload); err == nil {
				again = AppendRequest(nil, &req)
			}
		} else {
			var resp Response
			if err = DecodeResponse(&resp, payload, ""); err == nil {
				again = AppendResponse(nil, &resp)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMalformed) {
				t.Fatalf("refusal %v is neither ErrTruncated nor ErrMalformed", err)
			}
			return
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("decoded payload re-encodes to other bytes:\n in %x\nout %x", payload, again)
		}
	})
}

// TestHeaderDecidesNoAllocation: a header announcing MaxFrame, followed
// by the end of the stream, costs the reader a few KB, not the 8 MB the
// header asked for.
func TestHeaderDecidesNoAllocation(t *testing.T) {
	hdr := AppendHeader(nil, KindRequest, 0, nil)
	binary.LittleEndian.PutUint32(hdr[8:12], MaxFrame)
	stream := append(hdr, "a first few payload bytes"...)
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := NewFrameReader(bytes.NewReader(stream)).Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a MaxFrame header and EOF allocate %d B", per)
	}
}
