package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// Snapshot payloads carry one epoch's state-bank captures. Because bank
// registers reset at every window roll, consecutive epochs of a stable
// workload touch mostly the same slots with similar counts — so each
// bank is sent as varint-packed sparse cells, either of the values
// themselves (full) or of the per-cell change against the same bank in
// the previous frame (delta: counter subtract for CMS rows, XOR for
// Bloom rows). Delta frames chain: each names the epoch of the frame it
// builds on, and a decoder that missed a frame rejects the chain with
// ErrDeltaBase until the next keyframe re-grounds it. The encoder emits
// keyframes every KeyframeEvery frames and whenever its state is Reset
// (reconnect, write failure), so replay never needs history.
//
//	payload := uvarint(epoch) uvarint(hasBase) [uvarint(baseEpoch)]
//	           uvarint(banks) bank*
//	bank    := uvarint(qid part branch row kind algo seed range width
//	           ownerIndex ownerCount) mask byte(enc) uvarint(cells)
//	           (uvarint(idxGap) uvarint(value))*
//
// Cell indexes are strictly increasing: the first gap is the absolute
// index, later gaps are the distance from the previous index (≥ 1).

// BankID names one state bank across epochs.
type BankID struct {
	QueryID, Part, Branch, Row int
}

// bankCfg is the hash/merge configuration of a bank. A config change
// (rewidened sketch, reseeded hash, remasked keys) makes old values
// incomparable, so the encoder falls back to a full bank when it
// differs from the previous epoch's.
type bankCfg struct {
	Kind                   modules.BankKind
	Algo                   sketch.Algo
	Seed, Range            uint32
	OwnerIndex, OwnerCount uint32
	Width                  uint32
	KeyMask                fields.Mask
}

func cfgOf(b *modules.BankSnapshot) bankCfg {
	return bankCfg{
		Kind: b.Kind, Algo: b.Algo, Seed: b.Seed, Range: b.Range,
		OwnerIndex: b.OwnerIndex, OwnerCount: b.OwnerCount,
		Width: b.Width, KeyMask: b.KeyMask,
	}
}

const (
	encFull  = 0
	encDelta = 1
)

// heldBank is one bank's values as of the last frame that carried it:
// the base the next delta is taken against (encoder) or applied to
// (decoder). Both sides keep the slices across epochs and overwrite
// them in place, so a stable bank set costs no allocation per frame.
type heldBank struct {
	cfg  bankCfg
	vals []uint32
	// spare is the decoder's second buffer: a frame is decoded into it
	// and it changes places with vals only once the whole frame parsed,
	// so a rejected frame leaves vals as they were.
	spare []uint32
	// frame is the codec's frame count when the bank was last carried —
	// what a keyframe prunes the banks of removed queries by.
	frame uint64
}

// fitValues returns buf resized to width registers, reallocating only
// when it is too small. Contents are unspecified.
func fitValues(buf []uint32, width uint32) []uint32 {
	if uint32(cap(buf)) < width {
		return make([]uint32, width)
	}
	return buf[:width]
}

// SnapshotEncoder turns per-epoch bank snapshots into wire payloads,
// holding the previous frame's values so stable banks shrink to sparse
// deltas. It is not safe for concurrent use; the telemetry exporter
// drives it under its write lock.
type SnapshotEncoder struct {
	// KeyframeEvery emits a full keyframe every Nth frame (1 = every
	// frame, disabling delta encoding). Zero means DefaultKeyframeEvery.
	KeyframeEvery int

	prev      map[BankID]*heldBank
	frame     uint64
	prevEpoch uint32
	has       bool
	sinceKey  int

	// DeltaBanks and FullBanks count banks encoded each way over the
	// encoder's lifetime, for the exporter's wire counters.
	DeltaBanks uint64
	FullBanks  uint64
}

// DefaultKeyframeEvery is the keyframe cadence when the exporter
// doesn't choose one: one full grounding frame per 8 epochs.
const DefaultKeyframeEvery = 8

// Reset drops all delta state; the next frame is a keyframe. Call it
// after any write failure or reconnect so the stream never deltas
// against a frame the peer may not have seen.
func (e *SnapshotEncoder) Reset() {
	e.prev = nil
	e.has = false
	e.sinceKey = 0
}

// Encode appends one snapshot frame's payload and returns the flags to
// frame it with (FlagDelta on non-keyframes). Encoding commits the
// encoder's delta state — if the subsequent write fails, Reset.
func (e *SnapshotEncoder) Encode(dst []byte, epoch uint32, banks []modules.BankSnapshot) ([]byte, Flags) {
	every := e.KeyframeEvery
	if every <= 0 {
		every = DefaultKeyframeEvery
	}
	keyframe := !e.has || e.sinceKey >= every-1

	dst = binary.AppendUvarint(dst, uint64(epoch))
	var flags Flags
	if keyframe {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		flags = FlagDelta
		dst = binary.AppendUvarint(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(e.prevEpoch))
	}
	dst = binary.AppendUvarint(dst, uint64(len(banks)))

	e.frame++
	if e.prev == nil {
		e.prev = make(map[BankID]*heldBank, len(banks))
	}
	for i := range banks {
		b := &banks[i]
		id := BankID{b.QueryID, b.Part, b.Branch, b.Row}
		cfg := cfgOf(b)
		dst = appendBankHeader(dst, b)

		p := e.prev[id]
		var base []uint32
		if !keyframe && p != nil && p.cfg == cfg {
			base = p.vals
		}
		// A bank whose registers mostly turned over since the last epoch
		// (cells dropping to zero count as changes) can be cheaper to send
		// in full — sparse-full elides the zeroed cells, a delta must name
		// them. Pick per bank: ties go to delta, whose zigzag differences
		// pack smaller than absolute counters.
		if base != nil && countDeltaCells(base, b.Values) <= countNonzero(b.Values) {
			dst = appendDeltaCells(dst, cfg.Kind, base, b.Values)
			e.DeltaBanks++
		} else {
			dst = appendFullCells(dst, b.Values)
			e.FullBanks++
		}
		// The frame is written: the bank's values become the next base,
		// copied over the old one at the declared width — the codec's
		// canonical cell count (short slices read as zero-padded).
		if p == nil {
			p = &heldBank{}
			e.prev[id] = p
		}
		p.cfg, p.frame = cfg, e.frame
		p.vals = fitValues(p.vals, b.Width)
		clear(p.vals[copy(p.vals, b.Values):])
	}
	if keyframe {
		// A keyframe grounds exactly the banks it carries: prune the rest
		// (removed queries).
		for id, p := range e.prev {
			if p.frame != e.frame {
				delete(e.prev, id)
			}
		}
	}
	e.prevEpoch = epoch
	e.has = true
	if keyframe {
		e.sinceKey = 0
	} else {
		e.sinceKey++
	}
	return dst, flags
}

func appendBankHeader(dst []byte, b *modules.BankSnapshot) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.QueryID))
	dst = binary.AppendUvarint(dst, uint64(b.Part))
	dst = binary.AppendUvarint(dst, uint64(b.Branch))
	dst = binary.AppendUvarint(dst, uint64(b.Row))
	dst = binary.AppendUvarint(dst, uint64(b.Kind))
	dst = binary.AppendUvarint(dst, uint64(b.Algo))
	dst = binary.AppendUvarint(dst, uint64(b.Seed))
	dst = binary.AppendUvarint(dst, uint64(b.Range))
	dst = binary.AppendUvarint(dst, uint64(b.Width))
	dst = binary.AppendUvarint(dst, uint64(b.OwnerIndex))
	dst = binary.AppendUvarint(dst, uint64(b.OwnerCount))
	return appendMask(dst, b.KeyMask)
}

// countNonzero is the cell count a sparse-full encoding would carry.
func countNonzero(vals []uint32) int {
	n := 0
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// countDeltaCells is the cell count a delta encoding would carry: one
// per cell that differs from base (vals shorter than base reads as
// zero-padded).
func countDeltaCells(base, vals []uint32) int {
	n := 0
	if len(vals) >= len(base) {
		for i, bv := range base {
			if vals[i] != bv {
				n++
			}
		}
		return n
	}
	for i, v := range vals {
		if v != base[i] {
			n++
		}
	}
	for _, bv := range base[len(vals):] {
		if bv != 0 {
			n++
		}
	}
	return n
}

// appendFullCells sparse-encodes the nonzero cells of a bank.
func appendFullCells(dst []byte, vals []uint32) []byte {
	dst = append(dst, encFull)
	dst = binary.AppendUvarint(dst, uint64(countNonzero(vals)))
	last := -1
	for i, v := range vals {
		if v == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-max(last, 0)))
		dst = binary.AppendUvarint(dst, uint64(v))
		last = i
	}
	return dst
}

// appendDeltaCells sparse-encodes the cells that changed since base:
// zigzag-packed counter differences for CMS rows, XOR for Bloom rows.
func appendDeltaCells(dst []byte, kind modules.BankKind, base, vals []uint32) []byte {
	dst = append(dst, encDelta)
	dst = binary.AppendUvarint(dst, uint64(countDeltaCells(base, vals)))
	xor := kind == modules.BankBloomRow
	last := -1
	for i, bv := range base {
		var v uint32
		if i < len(vals) {
			v = vals[i]
		}
		if v == bv {
			continue
		}
		d := zigzag(int64(v) - int64(bv))
		if xor {
			d = uint64(v ^ bv)
		}
		dst = binary.AppendUvarint(dst, uint64(i-max(last, 0)))
		dst = binary.AppendUvarint(dst, d)
		last = i
	}
	return dst
}

// SnapshotDecoder is the receive side: it reconstructs full bank values
// from keyframes and chained deltas. One decoder serves one stream; it
// is not safe for concurrent use.
type SnapshotDecoder struct {
	prev  map[BankID]*heldBank
	frame uint64
	epoch uint32
	has   bool

	// out and hit are Decode's result and, beside it, the held bank each
	// result was decoded against (nil for a bank not held, or named twice
	// in one frame) — both reused from call to call.
	out []modules.BankSnapshot
	hit []*heldBank
}

// Decode parses one snapshot payload into full bank snapshots. A delta
// frame whose base is not the decoder's last applied frame returns
// ErrDeltaBase with no state change — drop the frame and resynchronize
// at the next keyframe.
//
// The returned banks and their Values are the decoder's own buffers:
// read-only, and valid only until the next Decode. Copy what must
// outlive it.
func (d *SnapshotDecoder) Decode(payload []byte) (uint32, []modules.BankSnapshot, error) {
	r := &reader{b: payload}
	epoch := uint32(r.uvarint())
	delta := false
	if r.uvarint() != 0 {
		delta = true
		base := uint32(r.uvarint())
		if r.err == nil && (!d.has || base != d.epoch) {
			return 0, nil, fmt.Errorf("%w: base %d, held %d", ErrDeltaBase, base, d.epoch)
		}
	}
	nBanks := r.length()
	d.frame++
	d.out, d.hit = d.out[:0], d.hit[:0]
	for i := 0; i < nBanks && r.err == nil; i++ {
		b, h, err := d.decodeBank(r, delta)
		if err != nil {
			return 0, nil, err
		}
		d.out, d.hit = append(d.out, b), append(d.hit, h)
	}
	if err := r.done(); err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	// Commit only after the whole frame parsed: each bank's decoded
	// values become its held ones (the buffers change places); a keyframe
	// then prunes every bank it did not carry, a delta frame keeps them.
	if d.prev == nil {
		d.prev = make(map[BankID]*heldBank, len(d.out))
	}
	for i := range d.out {
		b := &d.out[i]
		h := d.hit[i]
		if h == nil {
			id := BankID{b.QueryID, b.Part, b.Branch, b.Row}
			if h = d.prev[id]; h == nil {
				h = &heldBank{}
				d.prev[id] = h
			}
		}
		h.cfg, h.frame = cfgOf(b), d.frame
		h.vals, h.spare = b.Values, h.vals
	}
	if !delta {
		for id, h := range d.prev {
			if h.frame != d.frame {
				delete(d.prev, id)
			}
		}
	}
	d.epoch = epoch
	d.has = true
	return epoch, d.out, nil
}

// decodeBank parses one bank into a buffer no earlier result of this
// frame or held base aliases: the held bank's spare when the bank is
// held and this is its first mention in the frame (returned, stamped
// with the frame), a fresh slice otherwise.
func (d *SnapshotDecoder) decodeBank(r *reader, deltaFrame bool) (modules.BankSnapshot, *heldBank, error) {
	var b modules.BankSnapshot
	b.QueryID = int(r.uvarint())
	b.Part = int(r.uvarint())
	b.Branch = int(r.uvarint())
	b.Row = int(r.uvarint())
	b.Kind = modules.BankKind(r.uvarint())
	b.Algo = sketch.Algo(r.uvarint())
	b.Seed = uint32(r.uvarint())
	b.Range = uint32(r.uvarint())
	b.Width = uint32(r.uvarint())
	b.OwnerIndex = uint32(r.uvarint())
	b.OwnerCount = uint32(r.uvarint())
	b.KeyMask = r.mask()
	enc := r.byte()
	if r.err != nil {
		return b, nil, fmt.Errorf("snapshot bank: %w", r.err)
	}
	if b.Width > MaxFrame/4 {
		return b, nil, fmt.Errorf("%w: bank width %d", ErrTooLarge, b.Width)
	}
	if b.Kind != modules.BankCMSRow && b.Kind != modules.BankBloomRow {
		return b, nil, fmt.Errorf("%w: bank kind %d", ErrMalformed, b.Kind)
	}

	id := BankID{b.QueryID, b.Part, b.Branch, b.Row}
	held := d.prev[id]
	var base []uint32
	if enc == encDelta {
		if !deltaFrame {
			return b, nil, fmt.Errorf("%w: delta bank in keyframe", ErrMalformed)
		}
		if held == nil || held.cfg != cfgOf(&b) {
			return b, nil, fmt.Errorf("%w: no comparable base bank for %v", ErrDeltaBase, id)
		}
		base = held.vals
	} else if enc != encFull {
		return b, nil, fmt.Errorf("%w: bank encoding %d", ErrMalformed, enc)
	}
	var vals []uint32
	if held != nil && held.frame != d.frame {
		held.frame = d.frame
		held.spare = fitValues(held.spare, b.Width)
		vals = held.spare
	} else {
		held = nil
		vals = make([]uint32, b.Width)
	}
	clear(vals[copy(vals, base):])

	cells := int(r.uvarint())
	if r.err == nil && uint64(cells) > uint64(b.Width) {
		return b, nil, fmt.Errorf("%w: %d cells for width %d", ErrMalformed, cells, b.Width)
	}
	idx := -1
	for j := 0; j < cells && r.err == nil; j++ {
		gap := r.uvarint()
		v := r.uvarint()
		if idx < 0 {
			idx = int(gap)
		} else {
			if gap == 0 {
				return b, nil, fmt.Errorf("%w: zero cell gap", ErrMalformed)
			}
			idx += int(gap)
		}
		if uint64(idx) >= uint64(b.Width) {
			return b, nil, fmt.Errorf("%w: cell index %d beyond width %d", ErrMalformed, idx, b.Width)
		}
		switch {
		case enc == encFull:
			if v == 0 || v > 0xFFFFFFFF {
				return b, nil, fmt.Errorf("%w: cell value %d", ErrMalformed, v)
			}
			vals[idx] = uint32(v)
		case b.Kind == modules.BankBloomRow:
			if v > 0xFFFFFFFF {
				return b, nil, fmt.Errorf("%w: cell xor %d", ErrMalformed, v)
			}
			vals[idx] = base[idx] ^ uint32(v)
		default:
			nv := int64(base[idx]) + unzigzag(v)
			if nv < 0 || nv > 0xFFFFFFFF {
				return b, nil, fmt.Errorf("%w: cell delta overflows counter", ErrMalformed)
			}
			vals[idx] = uint32(nv)
		}
	}
	if r.err != nil {
		return b, nil, fmt.Errorf("snapshot bank: %w", r.err)
	}
	b.Values = vals
	return b, held, nil
}
