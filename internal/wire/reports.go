package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
)

// The report-batch payload is a sequence of runs. Consecutive reports
// sharing (SwitchID, QueryID, KeyMask) form one run — on a telemetry
// stream that is almost every report, since a batch drains one switch's
// ring and each query keeps one mask. Runs preserve batch order exactly
// (the analyzer's alert dedup is first-arrival-wins), and within a run
// the columns are packed separately: timestamps as zigzag deltas, each
// kept key field as its own varint column, then state and global
// columns. Concealed key fields are canonically zero — the data plane
// masks keys before mirroring, and the codec relies on that.
//
//	payload := uvarint(runs) run*
//	run     := string(switchID; ""=stream) uvarint(qid) mask uvarint(n)
//	           ts-column key-column* state-column global-column
//	mask    := uvarint(bitmap of nonzero entries) uvarint(entry)*
//	ts      := uvarint(first) zigzag(delta)*

// AppendReports encodes one batch. streamID is the hello-declared
// switch ID: reports carrying it (the common case — reports only cross
// switch IDs on relayed streams) omit the string per run.
func AppendReports(dst []byte, streamID string, rs []dataplane.Report) []byte {
	dst = binary.AppendUvarint(dst, uint64(countRuns(rs)))
	for start := 0; start < len(rs); {
		end := start + 1
		for end < len(rs) && sameRun(&rs[end], &rs[start]) {
			end++
		}
		dst = appendRun(dst, streamID, rs[start:end])
		start = end
	}
	return dst
}

func sameRun(a, b *dataplane.Report) bool {
	return a.SwitchID == b.SwitchID && a.QueryID == b.QueryID && a.KeyMask == b.KeyMask
}

func countRuns(rs []dataplane.Report) int {
	runs := 0
	for i := range rs {
		if i == 0 || !sameRun(&rs[i], &rs[i-1]) {
			runs++
		}
	}
	return runs
}

func appendRun(dst []byte, streamID string, rs []dataplane.Report) []byte {
	id := rs[0].SwitchID
	if id == streamID {
		id = ""
	}
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.AppendUvarint(dst, uint64(rs[0].QueryID))
	dst = appendMask(dst, rs[0].KeyMask)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))

	prevTS := uint64(0)
	for i := range rs {
		if i == 0 {
			dst = binary.AppendUvarint(dst, rs[i].TS)
		} else {
			dst = binary.AppendUvarint(dst, zigzag(int64(rs[i].TS)-int64(prevTS)))
		}
		prevTS = rs[i].TS
	}
	for id := fields.ID(0); id < fields.NumFields; id++ {
		if rs[0].KeyMask[id] == 0 {
			continue
		}
		for i := range rs {
			dst = binary.AppendUvarint(dst, rs[i].Keys[id])
		}
	}
	for i := range rs {
		dst = binary.AppendUvarint(dst, rs[i].State)
	}
	for i := range rs {
		dst = binary.AppendUvarint(dst, rs[i].Global)
	}
	return dst
}

// DecodeReports decodes one batch, resolving run-elided switch IDs to
// streamID.
func DecodeReports(payload []byte, streamID string) ([]dataplane.Report, error) {
	return DecodeReportsInto(nil, payload, streamID)
}

// DecodeReportsInto is DecodeReports into dst[:0], grown as needed: a
// stream that keeps the slice across frames decodes without allocating.
// A run's switch ID reuses the previous run's string when the bytes are
// equal. On an error it returns nil.
func DecodeReportsInto(dst []dataplane.Report, payload []byte, streamID string) ([]dataplane.Report, error) {
	return decodeReports(dst, payload, streamID, "")
}

// decodeReports is DecodeReportsInto whose first run reuses knownID's
// string when it names the same bytes.
func decodeReports(dst []dataplane.Report, payload []byte, streamID, knownID string) ([]dataplane.Report, error) {
	r := &reader{b: payload}
	runs := r.length()
	prev := knownID
	out := dst[:0]
	for i := 0; i < runs && r.err == nil; i++ {
		id := streamID
		if raw := r.bytes(r.length()); len(raw) > 0 {
			if id = prev; string(raw) != prev {
				id = string(raw)
			}
		}
		prev = id
		qid := r.uvarint()
		mask := r.mask()
		n := r.length()
		base := len(out)
		if r.err == nil {
			// AppendReports writes no empty run and merges a run into the
			// one before it when their keys agree, so a decoded batch
			// re-encodes to its own bytes.
			switch {
			case n == 0:
				r.err = fmt.Errorf("%w: empty run", ErrMalformed)
			case base > 0 && out[base-1].SwitchID == id && out[base-1].QueryID == int(qid) && out[base-1].KeyMask == mask:
				r.err = fmt.Errorf("%w: run continues the one before it", ErrMalformed)
			}
		}
		if r.err != nil {
			break
		}
		for j := 0; j < n; j++ {
			out = append(out, dataplane.Report{SwitchID: id, QueryID: int(qid), KeyMask: mask})
		}
		prevTS := uint64(0)
		for j := 0; j < n; j++ {
			if j == 0 {
				prevTS = r.uvarint()
			} else {
				prevTS = uint64(int64(prevTS) + unzigzag(r.uvarint()))
			}
			out[base+j].TS = prevTS
		}
		for id := fields.ID(0); id < fields.NumFields; id++ {
			if mask[id] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[base+j].Keys[id] = r.uvarint()
			}
		}
		for j := 0; j < n; j++ {
			out[base+j].State = r.uvarint()
		}
		for j := 0; j < n; j++ {
			out[base+j].Global = r.uvarint()
		}
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("reports: %w", err)
	}
	return out, nil
}

// appendMask encodes a key mask as its words (partial masks — derived
// keys like /24 prefixes — carry full 64-bit patterns).
func appendMask(dst []byte, m fields.Mask) []byte { return appendWords(dst, m[:]) }

func (r *reader) mask() fields.Mask {
	var m fields.Mask
	r.words(m[:])
	return m
}

// appendWords encodes fewer than 64 words as a bitmap of the nonzero ones
// followed by each of those.
func appendWords(dst []byte, w []uint64) []byte {
	bitmap := uint64(0)
	for i, v := range w {
		if v != 0 {
			bitmap |= 1 << i
		}
	}
	dst = binary.AppendUvarint(dst, bitmap)
	for _, v := range w {
		if v != 0 {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// words decodes what appendWords wrote for len(w) words into w, which
// must be zero.
func (r *reader) words(w []uint64) {
	bitmap := r.uvarint()
	if bitmap >= 1<<len(w) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: word bitmap %#x", ErrMalformed, bitmap)
		}
		return
	}
	for i := range w {
		if bitmap&(1<<i) != 0 {
			w[i] = r.uvarint()
			if w[i] == 0 && r.err == nil {
				r.err = fmt.Errorf("%w: zero word for set bitmap bit", ErrMalformed)
			}
		}
	}
}
