package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// The snapshot codec as it was before it held its bases as cellSets
// (commit 4081355): one dense []uint32 per bank in the encoder, two in
// the decoder, every pass at full width. It is kept, renamed and
// otherwise verbatim, as the reference the sparse codec is checked
// against (FuzzSnapshotVsDense): same frames out of the encoder, same
// verdict and same registers out of the decoder. Two checks were added
// to the decoder, marked below, because the sparse decoder makes them
// and this one must agree: the frame's width budget, a cell gap that
// wraps the index backwards (which this decoder used to accept, writing
// a register it had already written), and a Bloom cell of any value
// but 1 (a Bloom row's registers are bits: the encoder, given the 0s and
// 1s an engine's Bloom row holds, writes no other).

// denseHeld is one bank's values as of the last frame that carried it:
// the base the next delta is taken against (encoder) or applied to
// (decoder). Both sides keep the slices across epochs and overwrite
// them in place, so a stable bank set costs no allocation per frame.
type denseHeld struct {
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

// denseFit returns buf resized to width registers, reallocating only
// when it is too small. Contents are unspecified.
func denseFit(buf []uint32, width uint32) []uint32 {
	if uint32(cap(buf)) < width {
		return make([]uint32, width)
	}
	return buf[:width]
}

// denseEncoder turns per-epoch bank snapshots into wire payloads,
// holding the previous frame's values so stable banks shrink to sparse
// deltas. It is not safe for concurrent use; the telemetry exporter
// drives it under its write lock.
type denseEncoder struct {
	// KeyframeEvery emits a full keyframe every Nth frame (1 = every
	// frame, disabling delta encoding). Zero means DefaultKeyframeEvery.
	KeyframeEvery int

	prev      map[BankID]*denseHeld
	frame     uint64
	prevEpoch uint32
	has       bool
	sinceKey  int

	// DeltaBanks and FullBanks count banks encoded each way over the
	// encoder's lifetime, for the exporter's wire counters.
	DeltaBanks uint64
	FullBanks  uint64
}

// Reset drops all delta state; the next frame is a keyframe. Call it
// after any write failure or reconnect so the stream never deltas
// against a frame the peer may not have seen.
func (e *denseEncoder) Reset() {
	e.prev = nil
	e.has = false
	e.sinceKey = 0
}

// Encode appends one snapshot frame's payload and returns the flags to
// frame it with (FlagDelta on non-keyframes). Encoding commits the
// encoder's delta state — if the subsequent write fails, Reset.
func (e *denseEncoder) Encode(dst []byte, epoch uint32, banks []modules.BankSnapshot) ([]byte, Flags) {
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
		e.prev = make(map[BankID]*denseHeld, len(banks))
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
		if base != nil && denseCountDelta(base, b.Values) <= denseCountNonzero(b.Values) {
			dst = denseAppendDelta(dst, cfg.Kind, base, b.Values)
			e.DeltaBanks++
		} else {
			dst = denseAppendFull(dst, b.Values)
			e.FullBanks++
		}
		// The frame is written: the bank's values become the next base,
		// copied over the old one at the declared width — the codec's
		// canonical cell count (short slices read as zero-padded).
		if p == nil {
			p = &denseHeld{}
			e.prev[id] = p
		}
		p.cfg, p.frame = cfg, e.frame
		p.vals = denseFit(p.vals, b.Width)
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

// denseCountNonzero is the cell count a sparse-full encoding would carry.
func denseCountNonzero(vals []uint32) int {
	n := 0
	for _, v := range vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// denseCountDelta is the cell count a delta encoding would carry: one
// per cell that differs from base (vals shorter than base reads as
// zero-padded).
func denseCountDelta(base, vals []uint32) int {
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

// denseAppendFull sparse-encodes the nonzero cells of a bank.
func denseAppendFull(dst []byte, vals []uint32) []byte {
	dst = append(dst, encFull)
	dst = binary.AppendUvarint(dst, uint64(denseCountNonzero(vals)))
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

// denseAppendDelta sparse-encodes the cells that changed since base:
// zigzag-packed counter differences for CMS rows, XOR for Bloom rows.
func denseAppendDelta(dst []byte, kind modules.BankKind, base, vals []uint32) []byte {
	dst = append(dst, encDelta)
	dst = binary.AppendUvarint(dst, uint64(denseCountDelta(base, vals)))
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

// denseDecoder is the receive side: it reconstructs full bank values
// from keyframes and chained deltas. One decoder serves one stream; it
// is not safe for concurrent use.
type denseDecoder struct {
	prev  map[BankID]*denseHeld
	frame uint64
	epoch uint32
	has   bool

	// out and hit are Decode's result and, beside it, the held bank each
	// result was decoded against (nil for a bank not held, or named twice
	// in one frame) — both reused from call to call.
	out []modules.BankSnapshot
	hit []*denseHeld

	widths uint64 // added: the declared widths of the frame being decoded, summed
}

// Decode parses one snapshot payload into full bank snapshots. A delta
// frame whose base is not the decoder's last applied frame returns
// ErrDeltaBase with no state change — drop the frame and resynchronize
// at the next keyframe.
//
// The returned banks and their Values are the decoder's own buffers:
// read-only, and valid only until the next Decode. Copy what must
// outlive it.
func (d *denseDecoder) Decode(payload []byte) (uint32, []modules.BankSnapshot, error) {
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
	d.widths = 0
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
		d.prev = make(map[BankID]*denseHeld, len(d.out))
	}
	for i := range d.out {
		b := &d.out[i]
		h := d.hit[i]
		if h == nil {
			id := BankID{b.QueryID, b.Part, b.Branch, b.Row}
			if h = d.prev[id]; h == nil {
				h = &denseHeld{}
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
func (d *denseDecoder) decodeBank(r *reader, deltaFrame bool) (modules.BankSnapshot, *denseHeld, error) {
	var b modules.BankSnapshot
	b.QueryID = int(r.uvarint())
	b.Part = int(r.uvarint())
	b.Branch = int(r.uvarint())
	b.Row = int(r.uvarint())
	b.Kind = modules.BankKind(r.uvarint())
	algo := r.uvarint()
	b.Algo = sketch.Algo(algo)
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
	// Added: the frame's width budget.
	if d.widths += uint64(b.Width); d.widths > MaxFrameRegisters {
		return b, nil, fmt.Errorf("%w: bank widths sum past %d registers", ErrTooLarge, MaxFrameRegisters)
	}
	if b.Kind != modules.BankCMSRow && b.Kind != modules.BankBloomRow {
		return b, nil, fmt.Errorf("%w: bank kind %d", ErrMalformed, b.Kind)
	}
	// Added: the refusals that keep BankSnapshot.Slot from panicking.
	if uint64(b.Algo) != algo || !b.Algo.Known() {
		return b, nil, fmt.Errorf("%w: hash algo %d", ErrMalformed, algo)
	}
	if b.Width == 0 {
		return b, nil, fmt.Errorf("%w: bank of width 0", ErrMalformed)
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
		held.spare = denseFit(held.spare, b.Width)
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
			// Added: a gap past the width is refused before it is added, so
			// one of 2^63 and up cannot wrap the index backwards.
			if gap >= uint64(b.Width) {
				return b, nil, fmt.Errorf("%w: cell index beyond width %d", ErrMalformed, b.Width)
			}
			idx += int(gap)
		}
		if uint64(idx) >= uint64(b.Width) {
			return b, nil, fmt.Errorf("%w: cell index %d beyond width %d", ErrMalformed, idx, b.Width)
		}
		// Added: a Bloom cell carries 1, set (full) or flipped (delta).
		if b.Kind == modules.BankBloomRow && v != 1 {
			return b, nil, fmt.Errorf("%w: Bloom cell %d", ErrMalformed, v)
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
