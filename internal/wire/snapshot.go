package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

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

// heldBank is one bank as of the last frame that carried it: the base
// the next delta is taken against (encoder) or applied to (decoder),
// held as a cellSet. Each side fills the spare set from the new frame
// while it reads the held one, and the two change places once the frame
// is written (encoder) or has parsed whole (decoder) — so a stable bank
// set costs no allocation per frame and a rejected frame leaves the held
// set as it was.
type heldBank struct {
	cfg  bankCfg
	sets [2]cellSet
	cur  uint8 // sets[cur] is held, sets[cur^1] is the spare
	// frame is the codec's frame count when the bank was last carried —
	// what a keyframe prunes the banks of removed queries by.
	frame uint64
}

func (h *heldBank) held() *cellSet  { return &h.sets[h.cur] }
func (h *heldBank) spare() *cellSet { return &h.sets[h.cur^1] }

// heldBytes is the memory a codec's held banks keep between frames.
func heldBytes(banks map[BankID]*heldBank) int {
	n := 0
	for _, h := range banks {
		n += h.sets[0].bytes() + h.sets[1].bytes()
	}
	return n
}

// MaxFrameRegisters bounds the declared widths of one snapshot frame,
// summed: a bank costs its receiver memory by its width before a single
// cell is read (an occupancy bitmap in the decoder, a merged row in the
// analyzer), so the frame is bounded, not only the bank. 8 M registers
// is twice the largest layout in the repository.
const MaxFrameRegisters = MaxFrame

// CheckSnapshot reports whether a bank set fits one snapshot frame:
// ErrTooLarge when a bank is wider than a frame could carry in full, or
// the widths sum past MaxFrameRegisters. Senders check before encoding,
// so an oversized layout fails where it is configured; the decoder
// applies the same bounds to what it is sent.
func CheckSnapshot(banks []modules.BankSnapshot) error {
	var total uint64
	for i := range banks {
		if err := checkWidth(banks[i].Width, &total); err != nil {
			return err
		}
	}
	return nil
}

func checkWidth(width uint32, total *uint64) error {
	if width > MaxFrame/4 {
		return fmt.Errorf("%w: bank width %d", ErrTooLarge, width)
	}
	if *total += uint64(width); *total > MaxFrameRegisters {
		return fmt.Errorf("%w: bank widths sum past %d registers", ErrTooLarge, MaxFrameRegisters)
	}
	return nil
}

// SnapshotEncoder turns per-epoch bank snapshots into wire payloads,
// holding the previous frame's registers so stable banks shrink to
// sparse deltas. It is not safe for concurrent use; the telemetry
// exporter drives it under its write lock.
type SnapshotEncoder struct {
	// KeyframeEvery emits a full keyframe every Nth frame (1 = every
	// frame, disabling delta encoding). Zero means DefaultKeyframeEvery.
	KeyframeEvery int

	prev      map[BankID]*heldBank
	frame     uint64
	prevEpoch uint32
	has       bool
	sinceKey  int
	cells     []byte // a bank's delta cells, until their count is known and heads them

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

// HeldBytes is the memory the encoder keeps between frames for its
// delta bases.
func (e *SnapshotEncoder) HeldBytes() int { return heldBytes(e.prev) }

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
		hasBase := !keyframe && p != nil && p.cfg == cfg
		if p == nil {
			p = &heldBank{}
			e.prev[id] = p
		}
		// The one pass over the captured registers: at the declared width,
		// the codec's canonical cell count.
		base, cur := p.held(), p.spare()
		cur.pack(b.Values, b.Width)
		// A bank whose registers mostly turned over since the last epoch
		// (cells dropping to zero count as changes) can be cheaper to send
		// in full — sparse-full elides the zeroed cells, a delta must name
		// them. Pick per bank: ties go to delta, whose zigzag differences
		// pack smaller than absolute counters.
		delta := false
		if hasBase {
			var n int
			e.cells, n = appendDeltaCells(e.cells[:0], cfg.Kind, base, cur)
			delta = n <= len(cur.vals)
			if delta {
				dst = append(dst, encDelta)
				dst = binary.AppendUvarint(dst, uint64(n))
				dst = append(dst, e.cells...)
				e.DeltaBanks++
			}
		}
		if !delta {
			dst = appendFullCells(dst, cur)
			e.FullBanks++
		}
		// The frame is written: the bank's registers become the next base.
		p.cfg, p.frame = cfg, e.frame
		p.cur ^= 1
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

// appendCell writes one cell: its distance from the previous cell's
// index (the absolute index for the first, last < 0) and its value.
func appendCell(dst []byte, last, idx int, v uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(idx-max(last, 0)))
	return binary.AppendUvarint(dst, v)
}

// appendFullCells sparse-encodes the nonzero registers of a bank.
func appendFullCells(dst []byte, cur *cellSet) []byte {
	dst = append(dst, encFull)
	dst = binary.AppendUvarint(dst, uint64(len(cur.vals)))
	last, k := -1, 0
	for w, word := range cur.occ {
		for ; word != 0; word &= word - 1 {
			idx := w*64 + bits.TrailingZeros64(word)
			dst = appendCell(dst, last, idx, uint64(cur.vals[k]))
			last = idx
			k++
		}
	}
	return dst
}

// appendDeltaCells sparse-encodes the registers that changed since base
// — every one nonzero on one side only, and every one nonzero on both
// whose values differ — as zigzag-packed counter differences for CMS
// rows, XOR for Bloom rows, and returns how many there were. It stops
// once there are more than cur has registers: the bank then goes in
// full. The sets have the same width.
func appendDeltaCells(dst []byte, kind modules.BankKind, base, cur *cellSet) ([]byte, int) {
	xor := kind == modules.BankBloomRow
	n, last, ib, ic := 0, -1, 0, 0
	for w, bw := range base.occ {
		cw := cur.occ[w]
		if bw == cw {
			// The same registers are set: if they hold the same values too,
			// the word has nothing to say (most words of most epochs).
			c := bits.OnesCount64(bw)
			if slices.Equal(base.vals[ib:ib+c], cur.vals[ic:ic+c]) {
				ib, ic = ib+c, ic+c
				continue
			}
		}
		for either := bw | cw; either != 0; either &= either - 1 {
			bit := either & -either
			var bv, v uint32
			if bw&bit != 0 {
				bv = base.vals[ib]
				ib++
			}
			if cw&bit != 0 {
				v = cur.vals[ic]
				ic++
			}
			if v == bv {
				continue
			}
			if n++; n > len(cur.vals) {
				return dst, n
			}
			d := zigzag(int64(v) - int64(bv))
			if xor {
				d = uint64(v ^ bv)
			}
			idx := w*64 + bits.TrailingZeros64(bit)
			dst = appendCell(dst, last, idx, d)
			last = idx
		}
	}
	return dst, n
}

// SnapshotDecoder is the receive side: it reconstructs each bank's
// registers from keyframes and chained deltas. One decoder serves one
// stream; it is not safe for concurrent use.
type SnapshotDecoder struct {
	prev  map[BankID]*heldBank
	frame uint64
	epoch uint32
	has   bool

	// out, cells and hit are Decode's result — bank headers, their
	// registers — and, beside it, the held bank each result commits to;
	// all reused from call to call.
	out   []modules.BankSnapshot
	cells []Cells
	hit   []*heldBank
}

// Decode parses one snapshot payload into bank headers (Values is nil)
// and, through Cells, each bank's nonzero registers. A delta frame whose
// base is not the decoder's last applied frame returns ErrDeltaBase with
// no state change — drop the frame and resynchronize at the next
// keyframe.
//
// The returned banks and their Cells are the decoder's own memory:
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
	d.out, d.cells, d.hit = d.out[:0], d.cells[:0], d.hit[:0]
	var widths uint64
	for i := 0; i < nBanks && r.err == nil; i++ {
		b, h, err := d.decodeBank(r, delta, &widths)
		if err != nil {
			return 0, nil, err
		}
		d.out, d.cells, d.hit = append(d.out, b), append(d.cells, Cells{*h.spare()}), append(d.hit, h)
	}
	if err := r.done(); err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	// Commit only after the whole frame parsed: each bank's decoded set
	// becomes its held one (the sets change places), in frame order, so a
	// bank named twice resolves to its last mention; a keyframe then
	// prunes every bank it did not carry, a delta frame keeps them.
	if d.prev == nil {
		d.prev = make(map[BankID]*heldBank, len(d.out))
	}
	for i := range d.out {
		b := &d.out[i]
		h := d.hit[i]
		if h.frame != d.frame {
			d.prev[BankID{b.QueryID, b.Part, b.Branch, b.Row}] = h
		}
		h.cfg, h.frame = cfgOf(b), d.frame
		h.cur ^= 1
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

// Cells returns the registers of bank i of the last Decode's result.
func (d *SnapshotDecoder) Cells(i int) Cells { return d.cells[i] }

// HeldBytes is the memory the decoder keeps between frames: the sets a
// delta is applied to and the spares a frame is decoded into.
func (d *SnapshotDecoder) HeldBytes() int { return heldBytes(d.prev) }

// decodeBank parses one bank into the spare set of the heldBank it
// returns — a set no earlier result of this frame or held base aliases:
// the held bank itself at its first mention in the frame (stamped with
// the frame), a new one for a bank not held or named again, which the
// commit then puts in the held one's place.
func (d *SnapshotDecoder) decodeBank(r *reader, deltaFrame bool, widths *uint64) (modules.BankSnapshot, *heldBank, error) {
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
	if err := checkWidth(b.Width, widths); err != nil {
		return b, nil, err
	}
	if b.Kind != modules.BankCMSRow && b.Kind != modules.BankBloomRow {
		return b, nil, fmt.Errorf("%w: bank kind %d", ErrMalformed, b.Kind)
	}

	id := BankID{b.QueryID, b.Part, b.Branch, b.Row}
	h := d.prev[id]
	var base *cellSet
	if enc == encDelta {
		if !deltaFrame {
			return b, nil, fmt.Errorf("%w: delta bank in keyframe", ErrMalformed)
		}
		if h == nil || h.cfg != cfgOf(&b) {
			return b, nil, fmt.Errorf("%w: no comparable base bank for %v", ErrDeltaBase, id)
		}
		base = h.held()
	} else if enc != encFull {
		return b, nil, fmt.Errorf("%w: bank encoding %d", ErrMalformed, enc)
	}
	if h != nil && h.frame != d.frame {
		h.frame = d.frame
	} else {
		h = &heldBank{}
	}

	cells := int(r.uvarint())
	if r.err == nil && uint64(cells) > uint64(b.Width) {
		return b, nil, fmt.Errorf("%w: %d cells for width %d", ErrMalformed, cells, b.Width)
	}
	set := h.spare()
	set.size(b.Width)
	var err error
	if base == nil {
		err = set.decodeFull(r, b.Width, cells)
	} else {
		err = set.decodeDelta(r, base, b.Kind == modules.BankBloomRow, b.Width, cells)
	}
	if err != nil {
		return b, nil, err
	}
	if r.err != nil {
		return b, nil, fmt.Errorf("snapshot bank: %w", r.err)
	}
	return b, h, nil
}

// nextCell reads one cell and returns its index and raw value. Indexes
// are strictly increasing and below width; prev is the previous cell's,
// negative before the first.
func nextCell(r *reader, prev int, width uint32) (int, uint64, error) {
	var gap, v uint64
	if off := r.off; off+1 < len(r.b) && r.b[off]|r.b[off+1] < 0x80 {
		// Both in one byte each: most cells of a bank that is filling up.
		gap, v, r.off = uint64(r.b[off]), uint64(r.b[off+1]), off+2
	} else {
		gap = r.uvarint()
		v = r.uvarint()
	}
	if prev >= 0 {
		if gap == 0 {
			return 0, 0, fmt.Errorf("%w: zero cell gap", ErrMalformed)
		}
		// prev < width, so the subtraction cannot wrap — and neither can
		// the index, whatever the gap.
		if gap >= uint64(width)-uint64(prev) {
			return 0, 0, fmt.Errorf("%w: cell index beyond width %d", ErrMalformed, width)
		}
		return prev + int(gap), v, nil
	}
	if gap >= uint64(width) {
		return 0, 0, fmt.Errorf("%w: cell index %d beyond width %d", ErrMalformed, gap, width)
	}
	return int(gap), v, nil
}

// decodeFull fills the sized, empty set from a full bank's cells.
func (s *cellSet) decodeFull(r *reader, width uint32, cells int) error {
	clear(s.occ)
	// A cell is two bytes at least: a hostile count cannot drive an
	// allocation the unread payload does not back.
	s.room(min(cells, (len(r.b)-r.off)/2))
	idx := -1
	for j := 0; j < cells && r.err == nil; j++ {
		var v uint64
		var err error
		if idx, v, err = nextCell(r, idx, width); err != nil {
			return err
		}
		if v == 0 || v > 0xFFFFFFFF {
			return fmt.Errorf("%w: cell value %d", ErrMalformed, v)
		}
		s.occ[idx>>6] |= 1 << uint(idx&63)
		s.vals = append(s.vals, uint32(v))
	}
	return nil
}

// decodeDelta fills the sized, empty set with base as changed by a
// delta bank's cells: a merge-join of base's registers, in index order,
// with the frame's. Base's registers between two cells are copied
// through untouched; a frame that changes nothing is two copies.
func (s *cellSet) decodeDelta(r *reader, base *cellSet, xor bool, width uint32, cells int) error {
	copy(s.occ, base.occ)
	// The population a delta leaves is not known until it is applied;
	// base's is the best guess (exact for a bank whose key set is stable),
	// and growth from there is geometric.
	s.room(len(base.vals))
	from, out := base.vals, s.vals[:cap(s.vals)]
	// w is the bitmap word the current cell falls in, bw base's word
	// there, ow the word being written, rank the number of base's
	// registers below it; taken of base's values have been copied or
	// replaced, and k values written.
	w, rank, taken, k := -1, 0, 0, 0
	var bw, ow uint64
	idx := -1
	for j := 0; j < cells && r.err == nil; j++ {
		var v uint64
		var err error
		if idx, v, err = nextCell(r, idx, width); err != nil {
			return err
		}
		if idx>>6 != w {
			if w >= 0 {
				s.occ[w] = ow
				rank += bits.OnesCount64(bw)
			}
			for w++; w < idx>>6; w++ {
				rank += bits.OnesCount64(base.occ[w])
			}
			bw = base.occ[w]
			ow = bw
		}
		bit := uint64(1) << uint(idx&63)
		at := rank + bits.OnesCount64(bw&(bit-1))
		if k+at-taken >= len(out) {
			s.vals = out[:k]
			s.room(at - taken + 1)
			out = s.vals[:cap(s.vals)]
		}
		for ; taken < at; taken++ {
			out[k] = from[taken]
			k++
		}
		var old uint32
		if bw&bit != 0 {
			old = from[at]
			taken++
		}
		var now uint32
		if xor {
			if v > 0xFFFFFFFF {
				return fmt.Errorf("%w: cell xor %d", ErrMalformed, v)
			}
			now = old ^ uint32(v)
		} else {
			nv := int64(old) + unzigzag(v)
			if nv < 0 || nv > 0xFFFFFFFF {
				return fmt.Errorf("%w: cell delta overflows counter", ErrMalformed)
			}
			now = uint32(nv)
		}
		if now != 0 {
			ow |= bit
			out[k] = now
			k++
		} else {
			ow &^= bit
		}
	}
	if w >= 0 {
		s.occ[w] = ow
	}
	s.vals = append(out[:k], from[taken:]...)
	return nil
}
