package telemetry

import (
	"cmp"
	"errors"
	"fmt"
	"io"
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

// keepAlertWindows bounds the alert-dedup memory: dedup keys whose
// window trails the newest seen window by more than this many windows
// are compacted away. Retention is what keeps analyzer heap flat under
// many keys — a late duplicate older than the horizon would re-alert,
// but its window has long been judged.
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

	// Values are uint64 so counter sums over many switches cannot wrap
	// the registers' 32 bits.
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

// alertKey deduplicates threshold alerts network-wide: one alert per
// query, window, and monitored key, whichever switch reports first.
type alertKey struct {
	qid    int
	window uint64
	key    string // masked key bytes
}

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

	// Liveness: when the agent's stream last produced a frame, and how
	// many streams it currently has open (normally 0 or 1; an exporter
	// reconnect can briefly overlap).
	LastSeen time.Time
	Streams  int
	everUp   bool

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

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	agents map[string]*agentInfo
	reg    *obs.Registry // where per-agent series go as agents appear (RegisterObs); nil before

	// queries holds each query a snapshot has named or the controller has
	// pinned; deleting its entry is how a query is forgotten.
	queries map[int]*queryState

	// Alert dedup with bounded retention: maxWindow tracks the newest
	// window seen, and once seen grows past seenCompactAt the keys
	// older than keepAlertWindows are compacted away (amortized — the
	// threshold doubles with the surviving population, so compaction
	// cost stays O(1) per report).
	seen          map[alertKey]bool
	keyBuf        []byte // masked key bytes being looked up: a report's in seen, a read's in a merged row
	maxWindow     uint64
	seenCompactAt int
	pending       []dataplane.Report // deduped alerts not yet drained, the newest maxPending
	subs          map[int]chan Event
	nextSub       int

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
	return &Service{
		cfg:           cfg.withDefaults(),
		conns:         map[net.Conn]struct{}{},
		agents:        map[string]*agentInfo{},
		queries:       map[int]*queryState{},
		seen:          map[alertKey]bool{},
		seenCompactAt: minSeenCompact,
		subs:          map[int]chan Event{},
	}
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
// on a fresh stream).
func (s *Service) streamLoop(cr *countReader, agent *agentInfo, switchID string) error {
	var dec wire.SnapshotDecoder
	var inflated []byte // this stream's decompression buffer, kept across frames
	defer func() {
		// The decoder's sets go with the stream.
		s.mu.Lock()
		agent.wire.HeldBytes = 0
		s.mu.Unlock()
	}()
	for {
		hdr, payload, err := wire.ReadFrame(cr)
		if err != nil {
			if cleanStreamErr(err) {
				return nil
			}
			return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
		}
		compressed := hdr.Flags&wire.FlagCompressed != 0
		if compressed {
			if inflated, err = wire.DecompressInto(inflated, payload); err != nil {
				return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
			}
			payload = inflated
		}
		s.noteFrame(agent, cr.take(), uint64(len(payload))+wire.HeaderSize, compressed)
		switch hdr.Kind {
		case wire.KindReports:
			rs, err := wire.DecodeReports(payload, switchID)
			if err != nil {
				return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
			}
			s.ingestReports(agent, rs)
		case wire.KindSnapshot:
			epoch, banks, err := dec.Decode(payload)
			if errors.Is(err, wire.ErrDeltaBase) {
				// A frame this stream never saw separates us from the delta's
				// base. Drop it — the encoder's next keyframe re-grounds the
				// chain — and count the break.
				s.mu.Lock()
				agent.wire.ChainBreaks++
				s.mu.Unlock()
				continue
			}
			if err != nil {
				return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
			}
			s.ingestSnapshot(agent, switchID, epoch, banks, &dec, hdr.Flags&wire.FlagDelta != 0, uint64(dec.HeldBytes()))
		case wire.KindBye:
			st, err := wire.DecodeBye(payload)
			if err != nil {
				return fmt.Errorf("telemetry: agent %s: %w", switchID, err)
			}
			s.mu.Lock()
			agent.Bye = &st
			s.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("telemetry: agent %s: unknown frame kind %v", switchID, hdr.Kind)
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

// noteFrame is a frame's accounting, under one lock: the agent's
// liveness stamp, and the frame's bytes as they crossed the wire
// (wireBytes) and as they would have uncompressed (rawBytes).
func (s *Service) noteFrame(agent *agentInfo, wireBytes, rawBytes uint64, compressed bool) {
	s.mu.Lock()
	agent.LastSeen = time.Now()
	agent.wire.Frames++
	agent.wire.Bytes += wireBytes
	agent.wire.RawBytes += rawBytes
	if compressed {
		agent.wire.CompressedFrames++
	}
	s.mu.Unlock()
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
	a.LastSeen = time.Now()
	s.mu.Unlock()
	return a
}

func (s *Service) streamDown(a *agentInfo) {
	s.mu.Lock()
	a.Streams--
	s.mu.Unlock()
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
// the same (query, window, key) from different switches — or repeated
// crossings within a window — collapse to the first arrival.
func (s *Service) ingestReports(agent *agentInfo, rs []dataplane.Report) {
	windowNs := uint64(s.cfg.Window)
	var fresh []Event
	s.mu.Lock()
	agent.Reports += uint64(len(rs))
	s.totalReports += uint64(len(rs))
	for _, r := range rs {
		w := r.TS / windowNs
		if w > s.maxWindow {
			s.maxWindow = w
		}
		// The lookup converts the kept buffer in the index expression, which
		// the compiler does without copying; only a key seen for the first
		// time becomes a string.
		s.keyBuf = r.KeyMask.Bytes(&r.Keys, s.keyBuf[:0])
		if s.seen[alertKey{qid: r.QueryID, window: w, key: string(s.keyBuf)}] {
			s.dupAlerts++
			continue
		}
		s.seen[alertKey{qid: r.QueryID, window: w, key: string(s.keyBuf)}] = true
		s.pending = append(s.pending, r)
		fresh = append(fresh, Event{Kind: EventAlert, Report: r, Window: w})
	}
	// Nobody may ever drain (newton-analyzer only subscribes): keep the
	// newest maxPending. Cutting from the front costs nothing now; append
	// moves what is left when the array runs out, about once per
	// maxPending/4 alerts.
	if over := len(s.pending) - maxPending; over > 0 {
		s.pending = s.pending[over:]
		s.pendingDropped += uint64(over)
	}
	s.compactSeenLocked()
	s.publishLocked(fresh)
	s.mu.Unlock()
}

// maxPending bounds the deduplicated alerts held for DrainReports
// (240 B each, ~15 MB): past it the oldest are dropped and counted.
const maxPending = 1 << 16

// minSeenCompact is the dedup-map population below which compaction is
// never attempted — small maps are cheaper to keep than to sweep.
const minSeenCompact = 8192

// compactSeenLocked bounds the alert-dedup memory: once the map
// outgrows its amortization threshold, keys older than the
// keepAlertWindows horizon are dropped. The threshold then doubles
// with the surviving population, so each key is visited O(1) times.
func (s *Service) compactSeenLocked() {
	if len(s.seen) < s.seenCompactAt || s.maxWindow < keepAlertWindows {
		return
	}
	horizon := s.maxWindow - keepAlertWindows
	for k := range s.seen {
		if k.window < horizon {
			delete(s.seen, k)
		}
	}
	s.seenCompactAt = max(minSeenCompact, 2*len(s.seen))
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

// bankSlot is one sketch row of a query network-wide, and its merge.
type bankSlot struct {
	part, branch, row int
	MergedBank
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
	// (mergeBankLocked clears its values when one merges in). A bank the
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
	s.publishLocked([]Event{{
		Kind: EventSnapshotMerged, SwitchID: switchID, Epoch: epoch, Banks: len(banks),
	}})
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
// epoch. Only the cells are touched: a bank costs its nonzero registers
// to merge, not its width.
func (s *Service) mergeBankLocked(es *epochState, switchID string, b *modules.BankSnapshot, cells wire.Cells) {
	i, ok := slices.BinarySearchFunc(es.banks, b, func(slot bankSlot, b *modules.BankSnapshot) int {
		return cmp.Or(cmp.Compare(slot.part, b.Part), cmp.Compare(slot.branch, b.Branch), cmp.Compare(slot.row, b.Row))
	})
	if !ok {
		es.banks = slices.Insert(es.banks, i, bankSlot{part: b.Part, branch: b.Branch, row: b.Row})
	}
	m := &es.banks[i].MergedBank
	// Geometry conflict: a mid-window width change put two bank shapes
	// into the same epoch. Merging them would silently mix widths, and
	// skipping one would hide the gap entirely — instead the later
	// geometry replaces the resident one and the epoch is flagged as a
	// width transition, so provenance says exactly why the merge cannot
	// be trusted.
	conflict := len(m.Switches) > 0 && b.Width != m.Width
	if conflict {
		s.geomConflicts++
		s.markTransitionLocked(es)
	}
	if conflict || len(m.Switches) == 0 {
		// The epoch's first merge into the bank: a new slot, or one the
		// evicted epoch left, whose values are reused when the width matches.
		values := m.Values
		if len(values) == int(b.Width) {
			clear(values)
		} else {
			values = make([]uint64, b.Width)
		}
		*m = MergedBank{
			Kind: b.Kind, Algo: b.Algo, Seed: b.Seed, Range: b.Range,
			KeyMask: b.KeyMask, Width: b.Width,
			Values: values, Switches: m.Switches[:0],
		}
	}
	if b.Kind == modules.BankBloomRow {
		cells.OrInto(m.Values)
	} else {
		cells.AddTo(m.Values)
	}
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

// AgentLiveness reports when switch id's stream last produced a frame
// and whether a stream is currently open.
func (s *Service) AgentLiveness(id string) (lastSeen time.Time, connected bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.agents[id]
	if a == nil {
		return time.Time{}, false, false
	}
	return a.LastSeen, a.Streams > 0, true
}

// publishLocked fans events out to subscribers without blocking ingest:
// a subscriber whose buffer is full loses the event (counted).
func (s *Service) publishLocked(evs []Event) {
	for _, ev := range evs {
		for _, ch := range s.subs {
			select {
			case ch <- ev:
			default:
				s.subDropped++
			}
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
		v := m.Values[m.slot(s.keyBuf)]
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

// MergedRows returns copies of the merged banks of (query, branch) at
// epoch, in (partition, row) order, for inspection — the caller's to
// keep: the live banks keep merging, and are recycled once their epoch
// is evicted.
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
		m.Values = slices.Clone(m.Values)
		m.Switches = slices.Clone(m.Switches)
		m.Partial = len(missing) > 0 || es.transition
		m.Missing = missing
		m.Transition = es.transition
		out = append(out, &m)
	}
	return out
}

// DrainReports returns and clears the deduplicated alert reports
// accumulated since the last drain (the newest maxPending of them) — the
// push-based replacement for the controller's per-agent DrainReports
// polling.
func (s *Service) DrainReports() []dataplane.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
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
	DedupKeys   int    // alert-dedup keys resident (keys older than 64 windows are compacted away)
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
		DedupKeys:          len(s.seen),
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
