package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// ProgramVersion is the program encoding's version, its first byte.
const ProgramVersion = 1

// A program travels to an agent as the rules it installs, varint-packed.
// The header carries the totals of everything the program holds
// (modules.Counts), so the decoder builds the program in a modules.Arena
// of exactly that size: a decode costs the same dozen allocations
// whatever the program's size.
//
//	program := version counts sint(qid) string(name) sint(part) sint(totalParts) branch*
//	counts  := uvarint(branches ops K H S R entries actions)
//	branch  := words(init values ++ init masks) uvarint(ops) op*
//	op      := sint(kind) sint(set) sint(stage) byte(configs: K H S R) K? H? S? R?
//	K       := mask
//	H       := byte(algo) uvarint(seed) uvarint(range) byte(direct)
//	S       := sint(alu) sint(operand) uvarint(const) byte(field)
//	           byte(flags: passThrough row0 crossRead) sint(readBranch)
//	           uvarint(ownerIndex ownerCount widthHint)
//	R       := byte(onGlobal) uvarint(entries) entry*
//	entry   := sint(lo) sint(hi) uvarint(actions) (sint(kind) sint(coeff))*
//	words   := uvarint(bitmap of nonzero words) uvarint(word)*
//
// sint is a zigzag varint. Every varint is minimal and every flag byte
// holds only its defined bits, so one program has one encoding: a
// decoded program re-encodes to the bytes it came from.
//
// The decoder checks structure only. What each field may hold is
// modules' domain table, which Install walks for every door.

// Config presence bits of an op and flag bits of an S config.
const (
	hasK = 1 << iota
	hasH
	hasS
	hasR
)

const (
	sPassThrough = 1 << iota
	sRow0
	sCrossRead
)

// Minimal encoded sizes, which bound the header's totals by the bytes
// that follow it before anything is allocated.
const (
	minBranch = 2 // words bitmap, op count
	minOp     = 4 // kind, set, stage, configs
	minK      = 1 // mask bitmap
	minH      = 4 // algo, seed, range, direct
	minS      = 9
	minR      = 2 // onGlobal, entry count
	minEntry  = 3 // lo, hi, action count
	minAction = 2 // kind, coeff
)

// AppendProgram encodes p, a compiled program: none of its branches or
// ops is nil.
func AppendProgram(dst []byte, p *modules.Program) []byte {
	c := p.Counts()
	dst = append(dst, ProgramVersion)
	for _, n := range [...]int{c.Branches, c.Ops, c.K, c.H, c.S, c.R, c.Entries, c.Actions} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = appendSint(dst, int64(p.QID))
	dst = binary.AppendUvarint(dst, uint64(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = appendSint(dst, int64(p.Part))
	dst = appendSint(dst, int64(p.TotalParts))
	for _, b := range p.Branches {
		var init [12]uint64
		copy(init[:6], b.Init.Values[:])
		copy(init[6:], b.Init.Masks[:])
		dst = appendWords(dst, init[:])
		dst = binary.AppendUvarint(dst, uint64(len(b.Ops)))
		for _, op := range b.Ops {
			dst = appendOp(dst, op)
		}
	}
	return dst
}

func appendOp(dst []byte, op *modules.Op) []byte {
	dst = appendSint(dst, int64(op.Kind))
	dst = appendSint(dst, int64(op.Set))
	dst = appendSint(dst, int64(op.Stage))
	var configs byte
	if op.K != nil {
		configs |= hasK
	}
	if op.H != nil {
		configs |= hasH
	}
	if op.S != nil {
		configs |= hasS
	}
	if op.R != nil {
		configs |= hasR
	}
	dst = append(dst, configs)
	if k := op.K; k != nil {
		dst = appendMask(dst, k.Mask)
	}
	if h := op.H; h != nil {
		dst = append(dst, byte(h.Algo))
		dst = binary.AppendUvarint(dst, uint64(h.Seed))
		dst = binary.AppendUvarint(dst, uint64(h.Range))
		dst = append(dst, byte(h.Direct))
	}
	if s := op.S; s != nil {
		dst = appendSint(dst, int64(s.ALU))
		dst = appendSint(dst, int64(s.Operand))
		dst = binary.AppendUvarint(dst, uint64(s.Const))
		dst = append(dst, byte(s.Field))
		var flags byte
		if s.PassThrough {
			flags |= sPassThrough
		}
		if s.Row0 {
			flags |= sRow0
		}
		if s.CrossRead {
			flags |= sCrossRead
		}
		dst = append(dst, flags)
		dst = appendSint(dst, int64(s.ReadBranch))
		dst = binary.AppendUvarint(dst, uint64(s.OwnerIndex))
		dst = binary.AppendUvarint(dst, uint64(s.OwnerCount))
		dst = binary.AppendUvarint(dst, uint64(s.WidthHint))
	}
	if r := op.R; r != nil {
		dst = append(dst, boolByte(r.OnGlobal))
		dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
		for _, e := range r.Entries {
			dst = appendSint(dst, e.Lo)
			dst = appendSint(dst, e.Hi)
			dst = binary.AppendUvarint(dst, uint64(len(e.Actions)))
			for _, a := range e.Actions {
				dst = appendSint(dst, int64(a.Kind))
				dst = appendSint(dst, a.Coeff)
			}
		}
	}
	return dst
}

func appendSint(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, zigzag(v)) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeProgram decodes one program. Every refusal — truncation, a
// count past the bytes left or past the header's totals, an unknown
// version, a non-minimal varint, an undefined flag bit, trailing bytes —
// is ErrMalformed. It checks no field's domain: Install does.
func DecodeProgram(b []byte) (*modules.Program, error) {
	d := programDecoder{r: reader{b: b}}
	p := d.program()
	if err := d.r.done(); err != nil {
		if !errors.Is(err, ErrMalformed) {
			err = fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		return nil, fmt.Errorf("program: %w", err)
	}
	return p, nil
}

// programDecoder holds a decode's cursor and the arena the program is
// built in: each op, config, entry and action is the arena's next.
type programDecoder struct {
	r reader
	a modules.Arena
}

// malformed records the first structural refusal.
func (d *programDecoder) malformed(format string, args ...any) {
	if d.r.err == nil {
		d.r.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
	d.r.off = len(d.r.b)
}

func (d *programDecoder) sint() int64 { return unzigzag(d.r.uvarint()) }

func (d *programDecoder) int() int { return int(d.sint()) }

func (d *programDecoder) u32() uint32 {
	v := d.r.uvarint()
	if v > math.MaxUint32 {
		d.malformed("%d does not fit 32 bits", v)
	}
	return uint32(v)
}

// flags reads a byte that may hold only the bits of mask.
func (d *programDecoder) flags(mask byte) byte {
	f := d.r.byte()
	if f&^mask != 0 {
		d.malformed("flags %#x", f)
	}
	return f
}

func (d *programDecoder) program() *modules.Program {
	if v := d.r.byte(); d.r.err == nil && v != ProgramVersion {
		d.malformed("%w %d", ErrBadVersion, v)
	}
	var c modules.Counts
	for _, n := range [...]*int{&c.Branches, &c.Ops, &c.K, &c.H, &c.S, &c.R, &c.Entries, &c.Actions} {
		*n = d.r.length()
	}
	need := c.Branches*minBranch + c.Ops*minOp + c.K*minK + c.H*minH + c.S*minS +
		c.R*minR + c.Entries*minEntry + c.Actions*minAction
	if d.r.err == nil && need > len(d.r.b)-d.r.off {
		d.malformed("totals need %d bytes, %d left", need, len(d.r.b)-d.r.off)
	}
	if d.r.err != nil {
		return nil
	}
	p := &modules.Program{QID: d.int()}
	p.Name = string(d.r.bytes(d.r.length()))
	p.Part, p.TotalParts = d.int(), d.int()

	d.a = modules.NewArena(c)
	p.Branches = d.a.Branches(c.Branches)
	for _, b := range p.Branches {
		d.branch(b)
	}
	if d.r.err == nil && !d.a.Spent() {
		d.malformed("fewer than the header's totals")
	}
	return p
}

func (d *programDecoder) branch(b *modules.BranchProgram) {
	var init [12]uint64
	d.r.words(init[:])
	copy(b.Init.Values[:], init[:6])
	copy(b.Init.Masks[:], init[6:])
	b.Ops = d.a.Ops(d.r.length())
	for _, op := range b.Ops {
		d.op(op)
	}
	if d.a.Over() {
		d.malformed("more than the header's total")
	}
}

func (d *programDecoder) op(op *modules.Op) {
	op.Kind = modules.Kind(d.sint())
	op.Set = d.int()
	op.Stage = d.int()
	configs := d.flags(hasK | hasH | hasS | hasR)
	if configs&hasK != 0 {
		if op.K = d.a.K(); op.K != nil {
			op.K.Mask = d.r.mask()
		}
	}
	if configs&hasH != 0 {
		if op.H = d.a.H(); op.H != nil {
			h := op.H
			h.Algo = sketch.Algo(d.r.byte())
			h.Seed, h.Range = d.u32(), d.u32()
			h.Direct = fields.ID(d.r.byte())
		}
	}
	if configs&hasS != 0 {
		if op.S = d.a.S(); op.S != nil {
			s := op.S
			s.ALU = dataplane.SALUOp(d.sint())
			s.Operand = modules.OperandKind(d.sint())
			s.Const = d.u32()
			s.Field = fields.ID(d.r.byte())
			flags := d.flags(sPassThrough | sRow0 | sCrossRead)
			s.PassThrough, s.Row0, s.CrossRead = flags&sPassThrough != 0, flags&sRow0 != 0, flags&sCrossRead != 0
			s.ReadBranch = d.int()
			s.OwnerIndex, s.OwnerCount, s.WidthHint = d.u32(), d.u32(), d.u32()
		}
	}
	if configs&hasR != 0 {
		if op.R = d.a.R(); op.R != nil {
			op.R.OnGlobal = d.flags(1) != 0
			op.R.Entries = d.a.Entries(d.r.length())
			for i := range op.R.Entries {
				e := &op.R.Entries[i]
				e.Lo, e.Hi = d.sint(), d.sint()
				e.Actions = d.a.Actions(d.r.length())
				for j := range e.Actions {
					e.Actions[j] = modules.RAct{Kind: modules.RActKind(d.sint()), Coeff: d.sint()}
				}
			}
		}
	}
}
