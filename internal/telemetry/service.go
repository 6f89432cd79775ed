package telemetry

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/wire"
)

// ServiceConfig parameterizes the analyzer service.
type ServiceConfig struct {
	// Window is the query evaluation window used to deduplicate
	// threshold alerts across switches (default 100 ms, the paper's
	// epoch).
	Window time.Duration
	// KeepEpochs bounds how many merged epochs stay resident per query
	// (default 16): admitting a newer one evicts the query's oldest whole.
	// A switch that sends as many snapshots without naming a query it was
	// learned to host stops being expected to contribute to it.
	KeepEpochs int
}

// keepAlertWindows bounds the alert-dedup memory: the service holds the
// dedup sets of at most this many windows, and a window it does not hold
// recycles the least recently touched one. Retention is what keeps
// analyzer heap flat under many keys — a late duplicate whose window was
// recycled would re-alert, but that window has long been judged.
const keepAlertWindows = 64

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.KeepEpochs <= 0 {
		c.KeepEpochs = 16
	}
	return c
}

// MergedBank is the network-wide merge of one sketch row across every
// switch that exported it for one epoch: Count-Min rows sum counter-wise
// (each packet increments exactly one switch's counter, so the sum is
// the row a single switch seeing all traffic would hold), Bloom rows OR
// bitwise (a key is seen network-wide iff some switch saw it).
type MergedBank struct {
	Kind    modules.BankKind
	Algo    sketch.Algo
	Seed    uint32
	Range   uint32
	KeyMask fields.Mask
	Width   uint32

	// Values, laid out at Width when the bank is read back (MergedRows),
	// are uint64 so counter sums over many switches cannot wrap the
	// registers' 32 bits. The service holds only the nonzero ones.
	Values   []uint64
	Switches []string // switch IDs merged in, in arrival order

	// Partial provenance, filled when the bank is read back (MergedRows):
	// true when an expected switch contributed no snapshot for this
	// epoch, with the missing switches named. A partial merge
	// undercounts every key the missing member owns — consumers must
	// treat it as a lower bound, never as the network-wide truth.
	Partial bool
	Missing []string

	// Transition marks an epoch whose banks straddle a width resize:
	// the query's switches restarted with empty banks mid-window (or
	// two geometries reached the same epoch), so the merge undercounts
	// and is flagged Partial even with every contributor present.
	Transition bool
}

// slot computes the key's index in the merged row, replaying the
// data-plane H module.
func (m *MergedBank) slot(keyBytes []byte) uint32 {
	bs := modules.BankSnapshot{Algo: m.Algo, Seed: m.Seed, Range: m.Range, Width: m.Width}
	return bs.Slot(keyBytes)
}

// alertWindow is the alert-dedup set of one window: one alert per query,
// key mask and monitored key in it network-wide, whichever switch
// reports first. It is an open-addressed table of offsets into an arena
// of entries (alertEntry), so a key costs its entry's few bytes and a
// slot or two of the table, with no per-key allocation.
type alertWindow struct {
	w     uint64
	touch uint64 // Service.touches when the set was last looked up
	seed  maphash.Seed
	// slots is the table: 1 + an entry's offset in keys, 0 where empty.
	// Its length is a power of two, at most 3/4 of it in use. An entry
	// probes linearly from its hash and is compared byte for byte, so a
	// collision never suppresses an alert.
	slots []uint32
	n     int    // entries held
	keys  []byte // the arena of entries
}

// minAlertSlots is a new set's table length.
const minAlertSlots = 16

// keepAll is every field's mask at its full width: a kept field whose
// mask differs is kept under a partial pattern.
var keepAll = fields.KeepAll()

// The longest entry after its length byte must fit in that byte.
const _ = uint8(binary.MaxVarintLen64 + 2 + fields.NumFields*(binary.MaxVarintLen64+8))

// alertEntry writes r's dedup entry into dst[:0] and returns it: a
// length byte; the query ID as a uvarint; a uvarint of the bitmap of the
// fields the key mask keeps, shifted up one bit over a flag that is set
// when one of them is kept under a partial pattern (a prefix, say), in
// which case each kept field's mask follows as a uvarint; then each kept
// field's masked value, big-endian in the bytes its mask spans
// (fields.ID.Width() rounded up to bytes for a full-width mask). The
// entry is all of (query, key mask, masked key) and nothing else: a /32
// key of a query below 128 is 7 bytes.
func alertEntry(dst []byte, r *dataplane.Report) []byte {
	var kept, partial uint64
	for id, m := range &r.KeyMask {
		if m != 0 {
			kept |= 1 << id
			if m != keepAll[id] {
				partial = 1
			}
		}
	}
	dst = binary.AppendUvarint(append(dst[:0], 0), uint64(r.QueryID))
	dst = binary.AppendUvarint(dst, kept<<1|partial)
	if partial != 0 {
		for _, m := range &r.KeyMask {
			if m != 0 {
				dst = binary.AppendUvarint(dst, m)
			}
		}
	}
	for id, m := range &r.KeyMask {
		if m == 0 {
			continue
		}
		x := r.Keys[id] & m
		for sh := (bits.Len64(m) - 1) &^ 7; sh >= 0; sh -= 8 {
			dst = append(dst, byte(x>>sh))
		}
	}
	dst[0] = byte(len(dst) - 1)
	return dst
}

// reset empties the set for window w in place: the table and the arena
// keep their arrays.
func (aw *alertWindow) reset(w uint64) {
	aw.w = w
	clear(aw.slots)
	aw.n, aw.keys = 0, aw.keys[:0]
}

// add records entry k (length byte first) and reports whether k was new
// to the window.
func (aw *alertWindow) add(k []byte) bool {
	h := maphash.Bytes(aw.seed, k)
	i, ok := aw.slot(h, k)
	if ok {
		return false
	}
	if 4*(aw.n+1) > 3*len(aw.slots) {
		aw.grow()
		i, _ = aw.slot(h, k)
	}
	aw.slots[i] = uint32(len(aw.keys)) + 1
	if need := len(aw.keys) + len(k); need > cap(aw.keys) {
		aw.growArena(need)
	}
	aw.keys = append(aw.keys, k...)
	aw.n++
	return true
}

// smallAlertArena is the arena size below which a set's arena doubles.
const smallAlertArena = 256

// growArena makes room for need bytes of entries. A small arena doubles,
// as append grows it; past smallAlertArena it grows by a quarter, as a
// codec's cell set does, so a busy window's set holds at most a quarter
// over what its keys take (doubling left up to all of it). A recycled
// set keeps its arena, so a steady window size allocates nothing.
func (aw *alertWindow) growArena(need int) {
	c := cap(aw.keys)
	size := c + c/4
	if c < smallAlertArena {
		size = 2 * c
	}
	grown := make([]byte, len(aw.keys), max(need, size))
	copy(grown, aw.keys)
	aw.keys = grown
}

// slot returns the index of k's slot in the table, or of the empty slot
// its probe ends at, and whether k is held.
func (aw *alertWindow) slot(h uint64, k []byte) (int, bool) {
	mask := uint64(len(aw.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		off := aw.slots[i]
		if off == 0 {
			return int(i), false
		}
		if e := aw.keys[off-1:]; bytes.Equal(e[:1+int(e[0])], k) {
			return int(i), true
		}
	}
}

// grow doubles the table and rehashes every entry from the arena.
func (aw *alertWindow) grow() {
	aw.slots = make([]uint32, 2*len(aw.slots))
	mask := uint64(len(aw.slots) - 1)
	for off := 0; off < len(aw.keys); off += 1 + int(aw.keys[off]) {
		i := maphash.Bytes(aw.seed, aw.keys[off:off+1+int(aw.keys[off])]) & mask
		for aw.slots[i] != 0 {
			i = (i + 1) & mask
		}
		aw.slots[i] = uint32(off) + 1
	}
}

// heldBytes is what the set holds: the capacity of its table and arena.
func (aw *alertWindow) heldBytes() int { return 4*cap(aw.slots) + cap(aw.keys) }

// EventKind classifies subscription events.
type EventKind int

const (
	// EventAlert is a network-wide-deduplicated threshold alert.
	EventAlert EventKind = iota
	// EventSnapshotMerged fires when an agent's epoch snapshot has been
	// merged into the network-wide banks.
	EventSnapshotMerged
)

// Event is one subscription message.
type Event struct {
	Kind EventKind

	// Alert fields (EventAlert): the first report of this (query,
	// window, key) network-wide, plus the window it fell in.
	Report dataplane.Report
	Window uint64

	// Merge fields (EventSnapshotMerged).
	SwitchID string
	Epoch    uint32
	Banks    int
}

// agentInfo is the per-stream accounting of one connected agent.
type agentInfo struct {
	Reports   uint64
	Snapshots uint64
	Bye       *wire.ExportStats // final counters, once the agent said bye

	// Liveness: how many streams the agent currently has open (normally
	// 0 or 1; an exporter reconnect can briefly overlap). Its frame count
	// is wire.Frames.
	Streams int
	everUp  bool

	// Epoch-gap detection: the highest snapshot epoch seen, and how
	// many epochs were skipped (a reset exporter re-syncs at its
	// current epoch; everything between is telemetry that never
	// arrived).
	lastEpoch uint32
	hasEpoch  bool
	Gaps      uint64

	wire WireInfo // bytes-on-wire accounting
}

// WireInfo is the analyzer's view of one agent stream's wire usage.
type WireInfo struct {
	// Frames and Bytes count everything read off the stream, frame
	// headers included.
	Frames, Bytes uint64
	// RawBytes is what the frames would have cost without compression
	// (decompressed payload plus header); Bytes/RawBytes is the stream's
	// compression ratio.
	RawBytes uint64
	// CompressedFrames counts frames that arrived flate-packed.
	CompressedFrames uint64
	// DeltaFrames and KeyframeFrames split the snapshot frames by
	// encoding; DeltaFrames/(DeltaFrames+KeyframeFrames) is the stream's
	// delta hit-rate.
	DeltaFrames, KeyframeFrames uint64
	// ChainBreaks counts delta snapshots dropped because their base
	// epoch was not held (the stream resynced at the next keyframe).
	ChainBreaks uint64
	// HeldBytes is what the stream's snapshot decoder keeps between
	// frames to apply the next delta to, as of the last frame it
	// accepted: bitmap + nonzero registers per bank, twice (held and
	// spare). Zero once the stream has closed.
	HeldBytes uint64
}

// Service is the analyzer-side half of the telemetry plane: a
// concurrent stream server that ingests many agents' report batches and
// epoch snapshots, maintains network-wide merged sketch banks per
// (query, epoch), deduplicates threshold alerts across switches, and
// fans results out to subscribers over channels.
type Service struct {
	cfg ServiceConfig

	mu sync.Mutex
	// accounted is broadcast, on mu, as a frame is accounted and as a
	// stream ends: what AwaitFrames waits on.
	accounted sync.Cond
	ln        net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	agents map[string]*agentInfo
	reg    *obs.Registry // where per-agent series go as agents appear (RegisterObs); nil before

	// queries holds each query a snapshot has named or the controller has
	// pinned; deleting its entry is how a query is forgotten.
	queries map[int]*queryState

	// Alert dedup: one set per window, at most keepAlertWindows of them.
	// A window not held takes the least recently touched set once all are
	// in use, recycled in place so a fresh alert allocates nothing.
	alerts    []*alertWindow
	alertSeed maphash.Seed
	touches   uint64
	keyBuf    []byte             // being looked up: a report's dedup entry, or a read's masked key bytes in a merged row
	pending   []dataplane.Report // deduped alerts not yet drained, the newest maxPending
	drained   int                // how many the last DrainReports handed off: pending restarts at that size
	subs      map[int]chan Event
	nextSub   int

	// partialEpochs counts superseded epochs: when a query's frontier
	// advances, the epoch it leaves is judged final and counted partial if
	// expected contributors never delivered it.
	partialEpochs uint64

	totalReports     uint64
	dupAlerts        uint64
	pendingDropped   uint64
	streamErrors     uint64
	totalSnapshots   uint64
	dupSnapshots     uint64
	subDropped       uint64
	reconnects       uint64
	epochGaps        uint64
	widthTransitions uint64
	geomConflicts    uint64
}

// NewService builds an analyzer service.
func NewService(cfg ServiceConfig) *Service {
	s := &Service{
		cfg:       cfg.withDefaults(),
		conns:     map[net.Conn]struct{}{},
		agents:    map[string]*agentInfo{},
		queries:   map[int]*queryState{},
		alertSeed: maphash.MakeSeed(),
		subs:      map[int]chan Event{},
	}
	s.accounted.L = &s.mu
	return s
}

// Serve accepts agent streams until the listener closes (or Close).
func (s *Service) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.HandleConn(conn)
		}()
	}
}

// ErrWireRequired ends a stream whose hello does not propose a wire
// protocol version this service speaks.
var ErrWireRequired = errors.New("telemetry: hello proposes no wire protocol version")

// HandleConn ingests one agent stream (exported so tests and in-process
// deployments can wire net.Pipe ends directly). It returns when the
// stream ends; a clean bye or peer close returns nil, anything else an
// error that is also counted in ServiceStats.StreamErrors.
func (s *Service) HandleConn(conn net.Conn) (err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return net.ErrClosed
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		if err != nil {
			s.streamErrors++
		}
		s.mu.Unlock()
		conn.Close()
	}()

	cr := &countReader{r: conn}
	var hello Frame
	if err := rpc.ReadFrame(cr, &hello); err != nil {
		return fmt.Errorf("telemetry: reading hello: %w", err)
	}
	if hello.Type != FrameHello || hello.SwitchID == "" {
		return fmt.Errorf("telemetry: stream did not open with hello (got %q)", hello.Type)
	}
	// A hello below wire version 1 is from a peer that would go on to send
	// frames this service does not read. It is refused by closing, before
	// any per-agent state exists, and never by writing: such a peer never
	// reads the stream, and a write to it would block an unbuffered pipe.
	if hello.Wire < wire.Version1 {
		return fmt.Errorf("%w: %s sent wire=%d", ErrWireRequired, hello.SwitchID, hello.Wire)
	}
	ack := Frame{Type: FrameHelloAck, SwitchID: hello.SwitchID, Wire: wire.Version1}
	if err := rpc.WriteFrame(conn, &ack); err != nil {
		return fmt.Errorf("telemetry: hello-ack to %s: %w", hello.SwitchID, err)
	}
	agent := s.streamUp(hello.SwitchID)
	defer s.streamDown(agent)
	return s.streamLoop(cr, agent, hello.SwitchID)
}

// streamLoop ingests an acked stream until it ends. Each stream carries
// its own snapshot decoder: delta chains are per-stream state, grounded
// by the keyframe the exporter sends first (and after every reconnect,
// on a fresh stream). Its frame reader and report slice are kept across
// frames too, so a stream in steady state ingests without allocating.
func (s *Service) streamLoop(cr *countReader, agent *agentInfo, switchID string) error {
	var dec wire.SnapshotDecoder
	fr := wire.NewFrameReader(cr)
	var rs []dataplane.Report // the last report frame, decoded
	defer func() {
		// The decoder's sets go with the stream.
		s.mu.Lock()
		agent.wire.HeldBytes = 0
		s.mu.Unlock()
	}()
	for {
		hdr, payload, err := fr.Next()
		if err != nil {
			if cleanStreamErr(err) {
				return nil
			}
			return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
		}
		bye := false
		switch hdr.Kind {
		case wire.KindReports:
			if rs, err = wire.DecodeReportsInto(rs, payload, switchID); err == nil {
				s.ingestReports(agent, rs)
			}
		case wire.KindSnapshot:
			var epoch uint32
			var banks []modules.BankSnapshot
			switch epoch, banks, err = dec.Decode(payload); {
			case errors.Is(err, wire.ErrDeltaBase):
				// A frame this stream never saw separates us from the delta's
				// base. Drop it — the encoder's next keyframe re-grounds the
				// chain — and count the break.
				err = nil
				s.mu.Lock()
				agent.wire.ChainBreaks++
				s.mu.Unlock()
			case err == nil:
				s.ingestSnapshot(agent, switchID, epoch, banks, &dec, hdr.Flags&wire.FlagDelta != 0, uint64(dec.HeldBytes()))
			}
		case wire.KindBye:
			var st wire.ExportStats
			if st, err = wire.DecodeBye(payload); err == nil {
				s.mu.Lock()
				agent.Bye = &st
				s.mu.Unlock()
				bye = true
			}
		default:
			err = fmt.Errorf("unknown frame kind %v", hdr.Kind)
		}
		// The frame is counted once it is ingested, so a reader that has
		// seen the count reach a number sees what those frames carried.
		s.noteFrame(agent, cr.take(), uint64(len(payload))+wire.HeaderSize, hdr.Flags&wire.FlagCompressed != 0)
		if err != nil {
			return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
		}
		if bye {
			return nil
		}
	}
}

// countReader counts stream bytes as they are read, so per-agent wire
// accounting is what crossed the socket, headers included.
type countReader struct {
	r io.Reader
	n uint64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += uint64(n)
	return n, err
}

// take returns and clears the bytes read since the last call.
func (cr *countReader) take() uint64 {
	n := cr.n
	cr.n = 0
	return n
}

// noteFrame is a frame's accounting, under one lock: the frame count
// (the agent's liveness signal), and the frame's bytes as they crossed
// the wire (wireBytes) and as they would have uncompressed (rawBytes).
func (s *Service) noteFrame(agent *agentInfo, wireBytes, rawBytes uint64, compressed bool) {
	s.mu.Lock()
	agent.wire.Frames++
	agent.wire.Bytes += wireBytes
	agent.wire.RawBytes += rawBytes
	if compressed {
		agent.wire.CompressedFrames++
	}
	s.mu.Unlock()
	s.accounted.Broadcast()
}

// streamUp registers a new stream for the switch: its first ever is a
// connect, any later one (after its stream count hit zero) a reconnect.
func (s *Service) streamUp(id string) *agentInfo {
	a := s.registerAgent(id)
	s.mu.Lock()
	if a.everUp && a.Streams == 0 {
		s.reconnects++
	}
	a.everUp = true
	a.Streams++
	s.mu.Unlock()
	return a
}

func (s *Service) streamDown(a *agentInfo) {
	s.mu.Lock()
	a.Streams--
	s.mu.Unlock()
	s.accounted.Broadcast()
}

// AwaitTimeout bounds each wait on the telemetry path (AwaitFrames,
// Exporter.AwaitStream); a wait that reaches it fails.
const AwaitTimeout = 5 * time.Second

// AwaitFrames blocks until the streams of switch id have brought this
// service frames frames in all (WireInfo.Frames), and, when ended is
// set, until every stream of id has ended as well: the barrier a fleet
// waits on, given what the switch's exporter says it wrote
// (Exporter.Frames). It wakes as frames are ingested and streams end,
// and fails once AwaitTimeout passes first.
func (s *Service) AwaitFrames(id string, frames uint64, ended bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var got uint64
	var streams int
	if awaitCond(&s.accounted, func() bool {
		got, streams = 0, 0
		if a := s.agents[id]; a != nil {
			got, streams = a.wire.Frames, a.Streams
		}
		return got >= frames && (!ended || streams == 0)
	}) {
		return nil
	}
	return fmt.Errorf("telemetry: %s: %d of %d frames accounted, %d streams open", id, got, frames, streams)
}

// awaitCond waits on c, whose lock the caller holds, until done holds
// or AwaitTimeout passes, and reports whether done holds.
func awaitCond(c *sync.Cond, done func() bool) bool {
	expired := false
	t := time.AfterFunc(AwaitTimeout, func() {
		c.L.Lock()
		expired = true
		c.L.Unlock()
		c.Broadcast()
	})
	defer t.Stop()
	for !done() && !expired {
		c.Wait()
	}
	return done()
}

func cleanStreamErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrClosedPipe)
}

func (s *Service) registerAgent(id string) *agentInfo {
	s.mu.Lock()
	a := s.agents[id]
	var reg *obs.Registry // set for a new agent: its series go where RegisterObs said
	if a == nil {
		a = &agentInfo{}
		s.agents[id] = a
		reg = s.reg
	}
	s.mu.Unlock()
	if reg != nil {
		s.registerAgentObs(reg, id)
	}
	return a
}

// ingestReports deduplicates threshold alerts network-wide: reports for
// the same (query, key mask, window, key) from different switches — or
// repeated crossings within a window — collapse to the first arrival.
// Each fresh alert is published as it is found; rs is not kept.
func (s *Service) ingestReports(agent *agentInfo, rs []dataplane.Report) {
	windowNs := uint64(s.cfg.Window)
	s.mu.Lock()
	agent.Reports += uint64(len(rs))
	s.totalReports += uint64(len(rs))
	var aw *alertWindow // the set of the window the last report fell in
	for i := range rs {
		r := &rs[i]
		w := r.TS / windowNs
		if aw == nil || aw.w != w {
			aw = s.alertWindowLocked(w)
		}
		if !s.freshAlertLocked(aw, r) {
			s.dupAlerts++
			continue
		}
		if s.pending == nil {
			s.pending = make([]dataplane.Report, 0, max(s.drained, 1))
		}
		s.pending = append(s.pending, *r)
		s.publishLocked(Event{Kind: EventAlert, Report: *r, Window: w})
	}
	// Nobody may ever drain (newton-analyzer only subscribes): keep the
	// newest maxPending. Cutting from the front costs nothing now; append
	// moves what is left when the array runs out, about once per
	// maxPending/4 alerts.
	if over := len(s.pending) - maxPending; over > 0 {
		s.pending = s.pending[over:]
		s.pendingDropped += uint64(over)
	}
	s.mu.Unlock()
}

// maxPending bounds the deduplicated alerts held for DrainReports
// (240 B each, ~15 MB): past it the oldest are dropped and counted.
const maxPending = 1 << 16

// alertWindowLocked returns window w's dedup set and touches it: the one
// held, else a new one while fewer than keepAlertWindows are held, else
// the least recently touched set, emptied in place (the table and arena
// keep their arrays).
func (s *Service) alertWindowLocked(w uint64) *alertWindow {
	s.touches++
	var lru, last *alertWindow
	for _, aw := range s.alerts {
		if aw.w == w {
			aw.touch = s.touches
			return aw
		}
		if lru == nil || aw.touch < lru.touch {
			lru = aw
		}
		if last == nil || aw.touch > last.touch {
			last = aw
		}
	}
	if len(s.alerts) < keepAlertWindows {
		lru = newAlertWindow(s.alertSeed, last)
		s.alerts = append(s.alerts, lru)
	}
	lru.reset(w)
	lru.touch = s.touches
	return lru
}

// newAlertWindow returns an empty set with room for what last, the set
// touched last, holds: a table as long as its entries need and an arena
// as long as theirs. A workload's windows are alike, so a new set fills
// without growing its table and arena a step at a time (a recycled set
// keeps its arrays in the same way). The first set starts empty.
func newAlertWindow(seed maphash.Seed, last *alertWindow) *alertWindow {
	n := minAlertSlots
	if last == nil {
		return &alertWindow{seed: seed, slots: make([]uint32, n)}
	}
	for 4*last.n > 3*n {
		n *= 2
	}
	return &alertWindow{seed: seed, slots: make([]uint32, n), keys: make([]byte, 0, len(last.keys))}
}

// freshAlertLocked adds r's query, key mask and masked key to its
// window's set aw and reports whether they were new there: whether r is
// an alert.
func (s *Service) freshAlertLocked(aw *alertWindow, r *dataplane.Report) bool {
	s.keyBuf = alertEntry(s.keyBuf, r)
	return aw.add(s.keyBuf)
}

// queryState is everything the service holds about one query. Ingest,
// reads and removal all start from s.queries[qid], so retention,
// provenance and results cannot disagree about what a query still has.
type queryState struct {
	// expected are the switches that must deliver a snapshot for an epoch
	// to be complete, sorted by name: pinned by the controller
	// (SetExpected), otherwise learned from who contributes.
	expected []member
	pinned   bool
	// resizePending: NoteResize announced a width change whose transition
	// epoch — the first snapshot at the frontier — has not arrived yet.
	resizePending bool
	// epochs is the ring of retained epochs, ascending, at most KeepEpochs
	// of them; the last is the query's frontier. Only admit changes it.
	epochs []*epochState
}

// member is one expected contributor; at, its switch's snapshot count
// (agentInfo.Snapshots) when it last named the query, ages a learned one.
type member struct {
	sw string
	at uint64
}

// epochState is one retained epoch of one query. It leaves the ring
// whole, and the epoch admitted in its place is built in its memory.
type epochState struct {
	epoch uint32
	// transition: the epoch straddles a width resize (NoteResize, or two
	// geometries of one bank met in it), so its merge undercounts.
	transition bool
	// contrib are the switches that delivered the epoch, in arrival order.
	contrib []contribution
	// banks are the merged rows, sorted by (part, branch, row). One with no
	// Switches is the evicted epoch's memory, not yet this one's: reads skip it.
	banks []bankSlot
}

// contribution: the snapshot with ingest ordinal first (totalSnapshots,
// from 1) delivered sw's banks of the epoch; naming them again is a replay.
type contribution struct {
	sw    string
	first uint64
}

// bankSlot is one sketch row of a query network-wide, and its merge:
// the header and provenance in MergedBank (Values stays nil), the merged
// registers as cells.
type bankSlot struct {
	part, branch, row int
	MergedBank
	cells wire.MergedCells
}

// queryLocked returns qid's state, creating it at first mention.
func (s *Service) queryLocked(qid int) *queryState {
	q := s.queries[qid]
	if q == nil {
		q = &queryState{}
		s.queries[qid] = q
	}
	return q
}

// find returns the retained state of epoch, nil when it is not retained
// (or q is nil: a query never seen retains nothing).
func (q *queryState) find(epoch uint32) *epochState {
	if q != nil {
		for i := len(q.epochs) - 1; i >= 0 && q.epochs[i].epoch >= epoch; i-- {
			if q.epochs[i].epoch == epoch {
				return q.epochs[i]
			}
		}
	}
	return nil
}

// admit returns the state of epoch, making room when it is new. It is
// the retention rule: a query keeps its keep newest epochs. Below the
// bound a new epoch gets a fresh epochState; at it the oldest is evicted
// whole and recycled — a query in steady state merges each epoch into
// the memory of the one it drops (MergedRows hands out copies, so no
// reader holds it). An epoch older than everything a full ring holds
// would itself be the one evicted: the result is nil.
func (q *queryState) admit(epoch uint32, keep int) *epochState {
	at := len(q.epochs) // where epoch belongs: past every older one
	for at > 0 && q.epochs[at-1].epoch >= epoch {
		at--
	}
	if at < len(q.epochs) && q.epochs[at].epoch == epoch {
		return q.epochs[at]
	}
	if len(q.epochs) < keep {
		q.epochs = slices.Insert(q.epochs, at, &epochState{epoch: epoch})
		return q.epochs[at]
	}
	if at == 0 {
		return nil
	}
	es := q.epochs[0]
	copy(q.epochs, q.epochs[1:at])
	q.epochs[at-1] = es
	// Recycle: flag and contributions reset, each bank emptied of switches
	// (mergeBankLocked empties its cells when one merges in). A bank the
	// evicted epoch never received has stopped arriving; its memory goes.
	es.epoch, es.transition, es.contrib = epoch, false, es.contrib[:0]
	es.banks = slices.DeleteFunc(es.banks, func(b bankSlot) bool { return len(b.Switches) == 0 })
	for i := range es.banks {
		es.banks[i].Switches = es.banks[i].Switches[:0]
	}
	return es
}

// firstBy returns the ordinal of the snapshot that first delivered sw's
// banks of the epoch: 0 when none has, or es is nil (an epoch not retained).
func (es *epochState) firstBy(sw string) uint64 {
	if es != nil {
		for _, c := range es.contrib {
			if c.sw == sw {
				return c.first
			}
		}
	}
	return 0
}

// memberIndex finds sw among the expected contributors.
func (q *queryState) memberIndex(sw string) (int, bool) {
	return slices.BinarySearchFunc(q.expected, sw, func(m member, sw string) int {
		return strings.Compare(m.sw, sw)
	})
}

// expect returns sw's entry among them, added in name order when new.
func (q *queryState) expect(sw string) *member {
	i, ok := q.memberIndex(sw)
	if !ok {
		q.expected = slices.Insert(q.expected, i, member{sw: sw})
	}
	return &q.expected[i]
}

// missing counts the expected contributors that did not deliver es,
// for the callers that need no names: it builds no list.
func (q *queryState) missing(es *epochState) (n int) {
	for _, m := range q.expected {
		if es.firstBy(m.sw) == 0 {
			n++
		}
	}
	return n
}

// missingNames names them, sorted; nil when the epoch is complete.
func (q *queryState) missingNames(es *epochState) (names []string) {
	for _, m := range q.expected {
		if es.firstBy(m.sw) == 0 {
			names = append(names, m.sw)
		}
	}
	return names
}

// ingestSnapshot merges one agent's epoch snapshot into the
// network-wide banks: banks are the bank headers dec's last Decode
// returned, dec.Cells(i) their nonzero registers; delta and held are the
// frame's encoding and what dec now keeps, for the stream's wire
// accounting. A merge is idempotent per (query, epoch, switch): an
// exporter whose stream reset replays its latest snapshot, and if this
// analyzer already merged it the replayed banks are skipped, not added a
// second time.
func (s *Service) ingestSnapshot(agent *agentInfo, switchID string, epoch uint32, banks []modules.BankSnapshot, dec *wire.SnapshotDecoder, delta bool, held uint64) {
	s.mu.Lock()
	if delta {
		agent.wire.DeltaFrames++
	} else {
		agent.wire.KeyframeFrames++
	}
	agent.wire.HeldBytes = held
	agent.Snapshots++
	s.totalSnapshots++
	// Epoch-gap detection: an exporter that reconnects resumes at its
	// switch's current epoch; anything skipped in between is telemetry
	// that never arrived.
	if agent.hasEpoch && epoch > agent.lastEpoch+1 {
		gap := uint64(epoch - agent.lastEpoch - 1)
		agent.Gaps += gap
		s.epochGaps += gap
	}
	if !agent.hasEpoch || epoch > agent.lastEpoch {
		agent.lastEpoch, agent.hasEpoch = epoch, true
	}
	// Banks arrive sorted by (QID, Part): a run of equal query IDs is one
	// query's banks, and the per-query bookkeeping is done once a run. (An
	// unsorted snapshot only repeats it: every step is idempotent within
	// one snapshot.)
	replayed := false
	for lo, hi := 0, 0; lo < len(banks); lo = hi {
		qid := banks[lo].QueryID
		for hi = lo + 1; hi < len(banks) && banks[hi].QueryID == qid; hi++ {
		}
		q := s.queryLocked(qid)
		// Unless the controller pinned the membership, a switch that names
		// the query is expected to keep contributing to it.
		if !q.pinned {
			q.expect(switchID).at = agent.Snapshots
		}
		// Partial-result detection: once any contributor moves a query to a
		// newer epoch, the superseded epoch will not receive more snapshots
		// in practice — judge it, and count it partial if expected
		// contributors are still missing. (A heuristic: a very late straggler
		// could still arrive and merge, but the count flags the gap when it
		// mattered.)
		if n := len(q.epochs); n > 0 && epoch > q.epochs[n-1].epoch && q.missing(q.epochs[n-1]) > 0 {
			s.partialEpochs++
		}
		es := q.admit(epoch, s.cfg.KeepEpochs)
		if es == nil {
			continue // older than every retained epoch: neither merged nor recorded
		}
		// A controller-announced resize lands on the first snapshot at
		// the query's epoch frontier: that epoch's banks filled from
		// mid-window restarts and must carry Partial provenance.
		if q.resizePending && es == q.epochs[len(q.epochs)-1] {
			q.resizePending = false
			s.markTransitionLocked(es)
		}
		if first := es.firstBy(switchID); first == 0 {
			es.contrib = append(es.contrib, contribution{switchID, s.totalSnapshots})
		} else if first != s.totalSnapshots {
			replayed = true // an earlier snapshot already delivered them
			continue
		}
		for i := lo; i < hi; i++ {
			s.mergeBankLocked(es, switchID, &banks[i], dec.Cells(i))
		}
	}
	if replayed {
		s.dupSnapshots++
	}
	// Learned membership ages by the switch's own snapshots, not by epochs
	// (a restarted engine counts epochs from zero again): KeepEpochs in a
	// row without the query, and the switch has stopped hosting it.
	s.unlearnLocked(switchID, agent.Snapshots, uint64(s.cfg.KeepEpochs))
	s.publishLocked(Event{Kind: EventSnapshotMerged, SwitchID: switchID, Epoch: epoch, Banks: len(banks)})
	s.mu.Unlock()
}

// unlearnLocked drops sw, now at snapshot count n, from the learned
// membership of every query it last named age or more snapshots ago
// (age 0: of every query), and forgets a learned query left with no
// contributor. Pinned queries are the controller's.
func (s *Service) unlearnLocked(sw string, n, age uint64) {
	for qid, q := range s.queries {
		if q.pinned {
			continue
		}
		i, ok := q.memberIndex(sw)
		if !ok || n-q.expected[i].at < age {
			continue
		}
		q.expected = slices.Delete(q.expected, i, i+1)
		if len(q.expected) == 0 {
			delete(s.queries, qid)
		}
	}
}

// mergeBankLocked adds one switch's bank to the network-wide bank of its
// epoch, cells into cells: a bank costs its nonzero registers and the
// row's bitmap to merge, not its width.
func (s *Service) mergeBankLocked(es *epochState, switchID string, b *modules.BankSnapshot, cells wire.Cells) {
	i, ok := slices.BinarySearchFunc(es.banks, b, func(slot bankSlot, b *modules.BankSnapshot) int {
		return cmp.Or(cmp.Compare(slot.part, b.Part), cmp.Compare(slot.branch, b.Branch), cmp.Compare(slot.row, b.Row))
	})
	if !ok {
		es.banks = slices.Insert(es.banks, i, bankSlot{part: b.Part, branch: b.Branch, row: b.Row})
	}
	slot := &es.banks[i]
	m := &slot.MergedBank
	// Geometry conflict: a mid-window width or kind change put two bank
	// shapes into the same epoch. Merging them would silently mix widths
	// (or counters with bits), and skipping one would hide the gap
	// entirely — instead the later geometry replaces the resident one and
	// the epoch is flagged as a width transition, so provenance says
	// exactly why the merge cannot be trusted.
	conflict := len(m.Switches) > 0 && (b.Width != m.Width || b.Kind != m.Kind)
	if conflict {
		s.geomConflicts++
		s.markTransitionLocked(es)
	}
	if conflict || len(m.Switches) == 0 {
		// The epoch's first merge into the bank: a new slot, or one the
		// evicted epoch left, whose cells are emptied and reused.
		*m = MergedBank{
			Kind: b.Kind, Algo: b.Algo, Seed: b.Seed, Range: b.Range,
			KeyMask: b.KeyMask, Width: b.Width, Switches: m.Switches[:0],
		}
		slot.cells.Reset(b.Width, b.Kind == modules.BankBloomRow)
	}
	slot.cells.Merge(cells)
	m.Switches = append(m.Switches, switchID)
}

// SetExpected pins the set of switches that must contribute snapshots
// for query qid — the controller calls it after a deploy, so partial
// epochs name exactly the missing deploy members instead of relying on
// who happened to show up first. A nil or empty set forgets the query
// (used on Remove): its membership, epochs and merged banks go together.
func (s *Service) SetExpected(qid int, switches []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(switches) == 0 {
		delete(s.queries, qid)
		return
	}
	q := s.queryLocked(qid)
	q.pinned, q.expected = true, q.expected[:0]
	for _, n := range switches {
		q.expect(n)
	}
}

// NoteResize tells the analyzer that query qid's deployment was just
// reinstalled at a new sketch width with the same qid (the controller
// calls it from ResizeWidth, right before re-pinning SetExpected). The
// next snapshot at the query's epoch frontier marks that epoch as a
// width transition: its banks filled from mid-window restarts, so the
// merge reads Partial and provenance never silently mixes widths.
func (s *Service) NoteResize(qid int) {
	s.mu.Lock()
	s.queryLocked(qid).resizePending = true
	s.mu.Unlock()
}

// markTransitionLocked flags es as a width transition.
func (s *Service) markTransitionLocked(es *epochState) {
	if !es.transition {
		es.transition = true
		s.widthTransitions++
	}
}

// EpochStatus reports whether the merged view of query qid at epoch is
// complete: Partial is true when an expected switch contributed no
// snapshot (Missing naming them) or when the epoch straddles a width
// resize — a transition epoch's banks filled from mid-window restarts,
// so it undercounts even with every contributor present. Merged counts
// the switches that did contribute. An epoch that is not retained —
// evicted, or never seen — reads as one nobody delivered.
func (s *Service) EpochStatus(qid int, epoch uint32) (partial bool, missing []string, merged int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queries[qid]
	if q == nil {
		return false, nil, 0
	}
	es := q.find(epoch)
	missing = q.missingNames(es)
	if es == nil {
		return len(missing) > 0, missing, 0
	}
	return len(missing) > 0 || es.transition, missing, len(es.contrib)
}

// publishLocked fans an event out to subscribers without blocking
// ingest: a subscriber whose buffer is full loses it (counted).
func (s *Service) publishLocked(ev Event) {
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default:
			s.subDropped++
		}
	}
}

// Subscribe registers a result consumer. Events arrive on the returned
// channel (buffered to buf, default 64); cancel unregisters and closes
// it. Ingest never blocks on a slow subscriber — overflow events are
// dropped and counted in SubscriberDrops.
func (s *Service) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.mu.Unlock()
	}
	return ch, cancel
}

// probeLocked returns the smallest of the key's registers in the merged
// rows of (branch, kind) of es; ok is false when it has none (or es is
// nil). The key is serialised into the service's scratch: a buffer of
// the caller's would escape through the hash's indirect call.
func (s *Service) probeLocked(es *epochState, branch int, kind modules.BankKind, keys *fields.Vector) (least uint64, ok bool) {
	if es == nil {
		return 0, false
	}
	for i := range es.banks {
		m := &es.banks[i]
		if m.branch != branch || m.Kind != kind || len(m.Switches) == 0 {
			continue
		}
		s.keyBuf = m.KeyMask.Bytes(keys, s.keyBuf[:0])
		v := m.cells.At(m.slot(s.keyBuf))
		if !ok || v < least {
			least, ok = v, true
		}
	}
	return least, ok
}

// Estimate answers a network-wide point query from the merged Count-Min
// banks of (query, branch) at the given epoch: the minimum over merged
// rows at the key's slots — exactly the estimate a single switch holding
// all the traffic would produce. The keys vector carries the monitored
// entity (e.g. the victim DstIP); ok is false when no merged CMS rows
// exist for that (query, branch, epoch).
func (s *Service) Estimate(qid, branch int, epoch uint32, keys *fields.Vector) (est uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probeLocked(s.queries[qid].find(epoch), branch, modules.BankCMSRow, keys)
}

// SeenDistinct reports whether the merged network-wide Bloom banks of
// (query, branch) at epoch contain the key — true iff every merged
// Bloom row has the key's bit set on some switch.
func (s *Service) SeenDistinct(qid, branch int, epoch uint32, keys *fields.Vector) (seen, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	least, ok := s.probeLocked(s.queries[qid].find(epoch), branch, modules.BankBloomRow, keys)
	return least != 0, ok
}

// MergedRows returns the merged banks of (query, branch) at epoch, in
// (partition, row) order, for inspection, laid out dense — the caller's
// to keep, every slice its own: the live banks keep merging, and are
// recycled once their epoch is evicted.
func (s *Service) MergedRows(qid, branch int, epoch uint32) []*MergedBank {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []*MergedBank{}
	q := s.queries[qid]
	es := q.find(epoch)
	if es == nil {
		return out
	}
	missing := q.missingNames(es)
	for i := range es.banks {
		b := &es.banks[i]
		if b.branch != branch || len(b.Switches) == 0 {
			continue
		}
		m := b.MergedBank
		m.Values = b.cells.Dense()
		m.Switches = slices.Clone(m.Switches)
		m.Partial = len(missing) > 0 || es.transition
		m.Missing = slices.Clone(missing)
		m.Transition = es.transition
		out = append(out, &m)
	}
	return out
}

// DrainReports returns and clears the deduplicated alert reports
// accumulated since the last drain (the newest maxPending of them) — the
// push-based replacement for the controller's per-agent DrainReports
// polling. The slice is the caller's: the next alert starts a new one,
// sized for as many as this drain returned.
func (s *Service) DrainReports() []dataplane.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending, s.drained = nil, len(out)
	return out
}

// Stats summarizes the service's ingest accounting.
type ServiceStats struct {
	Agents          int
	LiveAgents      int    // agents with an open stream right now
	Queries         int    // queries with resident state: pinned, or learned and still contributed to
	Reports         uint64 // raw reports ingested (pre-dedup)
	DuplicateAlerts uint64 // reports suppressed by network-wide dedup
	PendingDropped  uint64 // deduplicated alerts dropped undrained, past maxPending
	StreamErrors    uint64 // streams that ended any way but a bye or a peer close
	Snapshots       uint64 // snapshot frames merged
	// DuplicateSnapshots counts snapshot frames that named banks of a
	// (query, epoch) their switch had already delivered — a replay after a
	// stream reset — whose banks were skipped instead of merged twice.
	DuplicateSnapshots uint64
	SubscriberDrops    uint64 // events lost to slow subscribers
	Reconnects         uint64 // agent streams re-established after a drop
	EpochGaps          uint64 // snapshot epochs skipped across all agents
	PartialEpochs      uint64 // superseded (query, epoch) merges missing expected contributors

	// Width-resize provenance accounting.
	WidthTransitions  uint64 // epochs flagged as straddling a sketch resize
	GeometryConflicts uint64 // snapshot banks whose shape conflicted with the resident merge

	// Wire accounting aggregated across agents.
	WireBytes   uint64 // stream bytes ingested, frame headers included
	RawBytes    uint64 // uncompressed cost of the frames ingested
	DeltaFrames uint64 // snapshot frames that arrived delta-encoded
	ChainBreaks uint64 // delta snapshots dropped for a missing base epoch
	DedupKeys   int    // alert-dedup keys resident: the population of the (at most keepAlertWindows) windows' sets
	DedupBytes  uint64 // held by those sets, recycled ones included: their tables' and arenas' capacity
	MergedBytes uint64 // held by the retained merged rows, recycled ones included: bitmap + nonzero sums
}

// Stats returns the current ingest counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := 0
	st := ServiceStats{
		Agents:             len(s.agents),
		Queries:            len(s.queries),
		Reports:            s.totalReports,
		DuplicateAlerts:    s.dupAlerts,
		PendingDropped:     s.pendingDropped,
		StreamErrors:       s.streamErrors,
		Snapshots:          s.totalSnapshots,
		DuplicateSnapshots: s.dupSnapshots,
		SubscriberDrops:    s.subDropped,
		Reconnects:         s.reconnects,
		EpochGaps:          s.epochGaps,
		PartialEpochs:      s.partialEpochs,
		WidthTransitions:   s.widthTransitions,
		GeometryConflicts:  s.geomConflicts,
	}
	for _, aw := range s.alerts {
		st.DedupKeys += aw.n
		st.DedupBytes += uint64(aw.heldBytes())
	}
	for _, a := range s.agents {
		if a.Streams > 0 {
			live++
		}
		st.WireBytes += a.wire.Bytes
		st.RawBytes += a.wire.RawBytes
		st.DeltaFrames += a.wire.DeltaFrames
		st.ChainBreaks += a.wire.ChainBreaks
	}
	st.LiveAgents = live
	for _, q := range s.queries {
		for _, es := range q.epochs {
			for i := range es.banks {
				st.MergedBytes += uint64(es.banks[i].cells.Bytes())
			}
		}
	}
	return st
}

// AgentWire returns switch id's stream wire accounting: bytes on the
// wire vs their uncompressed cost, and the delta snapshot hit/break
// counts.
func (s *Service) AgentWire(id string) (WireInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.agents[id]
	if a == nil {
		return WireInfo{}, false
	}
	return a.wire, true
}

// ForgetAgent releases the per-agent bookkeeping for a switch that has
// been permanently removed from the fleet, so a long-lived analyzer
// does not hold one agents-map entry (plus learned expected-contributor
// membership, and the queries only it hosted) per switch it has ever
// seen. It refuses — returning false — while the agent still has a
// stream open: forgetting a live switch would silently reset its
// gap/liveness accounting. Pinned expected sets are left alone (the
// controller owns those via SetExpected).
func (s *Service) ForgetAgent(id string) bool {
	s.mu.Lock()
	a := s.agents[id]
	if a == nil || a.Streams > 0 {
		s.mu.Unlock()
		return false
	}
	delete(s.agents, id)
	s.unlearnLocked(id, a.Snapshots, 0)
	reg := s.reg
	s.mu.Unlock()
	if reg != nil {
		reg.Remove(heldBytesSeries, obs.L("switch", id))
	}
	return true
}

// TrackedAgents returns how many switches the service currently holds
// per-agent bookkeeping for — the population behind the
// newton_analyzer_tracked_agents gauge.
func (s *Service) TrackedAgents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.agents)
}

// Contributors returns the switches that contributed at least one bank
// snapshot to qid across the retained epochs, sorted. This is the
// provenance surface a soak harness audits: a switch a tenant's query
// was never placed on must never appear here.
func (s *Service) Contributors(qid int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []string{}
	if q := s.queries[qid]; q != nil {
		for _, es := range q.epochs {
			for _, c := range es.contrib {
				out = append(out, c.sw)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// AgentStats returns the per-agent accounting for switch id (reports
// and snapshots ingested, plus the agent's final exporter counters once
// it said bye — the explicit loss account).
func (s *Service) AgentStats(id string) (agentReports, agentSnapshots uint64, bye *wire.ExportStats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.agents[id]
	if a == nil {
		return 0, 0, nil, false
	}
	return a.Reports, a.Snapshots, a.Bye, true
}

// Close stops accepting, closes every live stream, and waits for
// handlers to drain. Subscriber channels are closed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.mu.Unlock()
	return nil
}
