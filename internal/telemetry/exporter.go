package telemetry

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/wire"
)

// ExporterConfig parameterizes a switch-side exporter.
type ExporterConfig struct {
	// SwitchID names the switch in hello frames and report provenance.
	SwitchID string
	// RingSize bounds the export queue in reports (default 4096).
	RingSize int
	// BatchSize caps reports per frame (default 256). Batching amortizes
	// the per-frame encode and syscall over many reports.
	BatchSize int
	// Policy picks the overflow behavior when the ring fills.
	Policy Policy

	// Codec selects nothing: see the shim's comment in frame.go.
	Codec Codec
	// NegotiateTimeout bounds how long a hello waits for the peer's
	// hello-ack before the stream is given up (default 2s).
	NegotiateTimeout time.Duration
	// KeyframeEvery is the snapshot keyframe cadence: every Nth snapshot
	// frame carries full banks, the rest delta-encode against the
	// previous epoch (default wire.DefaultKeyframeEvery; 1 disables delta
	// encoding).
	KeyframeEvery int

	// Redial, when set, enables auto-reconnect: after a stream error the
	// exporter keeps monitoring (reports are dropped and counted, never
	// blocked on), while a background loop redials with backoff. On
	// success it replays the hello and the latest epoch snapshot so the
	// analyzer resumes with current state. Dial sets this automatically.
	Redial func() (net.Conn, error)
	// ReconnectMin/Max bound the redial backoff (defaults 50ms / 2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

// compressMin is the payload size in bytes from which frames are
// flate-compressed.
const compressMin = 512

func (c ExporterConfig) withDefaults() ExporterConfig {
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.NegotiateTimeout <= 0 {
		c.NegotiateTimeout = 2 * time.Second
	}
	if c.KeyframeEvery <= 0 {
		c.KeyframeEvery = wire.DefaultKeyframeEvery
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 2 * time.Second
	}
	return c
}

// Exporter is the switch-side half of the telemetry plane: it accepts
// mirrored reports from the packet path, buffers them in a bounded
// ring, and pushes batched frames over a dedicated stream. A background
// writer goroutine owns the stream; the packet path only ever touches
// the ring, so a slow analyzer translates into ring pressure (block or
// drop-oldest, per policy), never into unbounded memory.
type Exporter struct {
	cfg  ExporterConfig
	conn net.Conn
	ring *ring

	writeMu sync.Mutex // serializes frames on the stream; guards conn swap
	// Stream codec state, guarded by writeMu alongside conn: the snapshot
	// delta encoder (reset for every new stream) and a reusable payload
	// buffer.
	enc    wire.SnapshotEncoder
	payBuf []byte

	// Epoch snapshot state, guarded by writeMu. snapBuf is the buffer
	// ExportEpoch captures every epoch's banks into; the exporter owns it
	// and its Values, so a steady bank set is captured without
	// allocating. lastSnap* is the latest snapshot offered (snapBuf
	// itself after an ExportEpoch), kept for replay after a reconnect:
	// the analyzer's merge resumes from the switch's current state
	// instead of waiting a full window for the next roll.
	snapBuf       []modules.BankSnapshot
	lastSnapEpoch uint32
	lastSnapBanks []modules.BankSnapshot
	hasSnap       bool

	mu           sync.Mutex
	idle         *sync.Cond
	enqueued     uint64 // reports offered to Export
	exported     uint64 // reports written to the stream
	lost         uint64 // reports lost to stream errors or late Export calls
	batches      uint64
	snapshots    uint64
	reconnects   uint64
	wireBytes    uint64 // bytes written to the stream, frame headers included
	payloadBytes uint64 // encoded bytes before compression (headers included)
	compressed   uint64 // frames the flate gate shrank
	deltaBanks   uint64 // snapshot banks sent as sparse deltas (enc.DeltaBanks, readable under mu)
	keyBanks     uint64 // snapshot banks sent in full (enc.FullBanks, likewise)
	encodeNs     uint64 // time spent encoding wire payloads
	writeErr     error
	closed       bool
	writerEnd    bool
	reconnecting bool

	// agent, when attached, calls this exporter's epoch hook; kept so
	// Close can detach rather than leave the agent calling into a dead
	// exporter.
	agent *rpc.Agent

	closeCh chan struct{} // interrupts reconnect backoff
	wg      sync.WaitGroup
}

// NewExporter starts an exporter over an established connection (TCP to
// the analyzer, or one end of net.Pipe in tests). It sends the hello
// frame synchronously, waits for the hello-ack, and launches the stream
// writer.
func NewExporter(conn net.Conn, cfg ExporterConfig) (*Exporter, error) {
	cfg = cfg.withDefaults()
	e := &Exporter{
		cfg:     cfg,
		conn:    conn,
		ring:    newRing(cfg.RingSize, cfg.Policy),
		enc:     wire.SnapshotEncoder{KeyframeEvery: cfg.KeyframeEvery},
		closeCh: make(chan struct{}),
	}
	e.idle = sync.NewCond(&e.mu)
	if err := negotiate(conn, cfg); err != nil {
		return nil, err
	}
	e.wg.Add(1)
	go e.writer()
	return e, nil
}

// negotiate opens a stream: it sends the hello proposing the wire
// protocol and waits for the hello-ack granting it. No ack inside
// NegotiateTimeout, or one granting less, is an error and the caller
// drops the conn. Only this end can see the timeout — the peer's ack may
// merely be late — so nothing decided by it may be sent on the conn it
// expired on. The read is the only one an exporter ever performs.
func negotiate(conn net.Conn, cfg ExporterConfig) error {
	hello := &Frame{Type: FrameHello, SwitchID: cfg.SwitchID, Wire: wire.Version1}
	if err := rpc.WriteFrame(conn, hello); err != nil {
		return fmt.Errorf("telemetry: hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(cfg.NegotiateTimeout))
	var ack Frame
	err := rpc.ReadFrame(conn, &ack)
	_ = conn.SetReadDeadline(time.Time{})
	if err == nil && (ack.Type != FrameHelloAck || ack.Wire < wire.Version1) {
		err = fmt.Errorf("peer answered %q wire=%d", ack.Type, ack.Wire)
	}
	if err != nil {
		return fmt.Errorf("telemetry: hello not acked for the binary wire protocol: %w", err)
	}
	return nil
}

// Dial connects to an analyzer service and starts an exporter on the
// stream. The exporter auto-reconnects to addr after stream errors
// (cfg.Redial is filled in when unset).
func Dial(addr string, cfg ExporterConfig) (*Exporter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: dialing analyzer: %w", err)
	}
	if cfg.Redial == nil {
		cfg.Redial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	e, err := NewExporter(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return e, nil
}

// DialAttached dials an analyzer and wires the exporter into a control
// agent in one step; on any failure the agent's telemetry hooks are
// detached so it never calls into a half-built exporter.
func DialAttached(addr string, cfg ExporterConfig, a *rpc.Agent, eng *modules.Engine) (*Exporter, error) {
	e, err := Dial(addr, cfg)
	if err != nil {
		a.SetTelemetryHooks(nil)
		return nil, err
	}
	e.AttachAgent(a, eng)
	return e, nil
}

// Export offers mirrored reports to the stream. Under PolicyBlock it
// blocks while the ring is full (lossless backpressure); under
// PolicyDropOldest it always returns promptly, evicting the stalest
// queued reports and counting every loss.
func (e *Exporter) Export(rs []dataplane.Report) {
	if len(rs) == 0 {
		return
	}
	accepted := e.ring.put(rs)
	e.mu.Lock()
	e.enqueued += uint64(len(rs))
	e.lost += uint64(len(rs) - accepted)
	e.idle.Broadcast()
	e.mu.Unlock()
}

// writer drains the ring and pushes report frames until the ring closes
// and empties. After a stream error it keeps draining — counting the
// undeliverable reports as lost — so block-policy producers never
// deadlock on a dead analyzer; if a redialer is configured the drops
// stop once the background reconnect restores the stream.
func (e *Exporter) writer() {
	defer e.wg.Done()
	buf := make([]dataplane.Report, 0, e.cfg.BatchSize)
	for {
		batch := e.ring.drainUpTo(e.cfg.BatchSize, buf)
		if batch == nil {
			break
		}
		var err error
		e.mu.Lock()
		dead := e.writeErr != nil
		e.mu.Unlock()
		if !dead {
			err = e.writeReports(batch)
		}
		e.mu.Lock()
		switch {
		case dead || err != nil:
			e.noteWriteErrLocked(err)
			e.lost += uint64(len(batch))
		default:
			e.exported += uint64(len(batch))
			e.batches++
		}
		e.idle.Broadcast()
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.writerEnd = true
	e.idle.Broadcast()
	e.mu.Unlock()
}

// countWriter counts bytes on their way to the stream so the wire
// counters reflect what actually hit the socket, headers included.
type countWriter struct {
	w io.Writer
	n uint64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// writeFrameLocked compresses (size-gated) and frames one payload.
// encNs is the time the caller spent building the payload.
// Callers hold writeMu.
func (e *Exporter) writeFrameLocked(kind wire.Kind, flags wire.Flags, payload []byte, encNs time.Duration) error {
	start := time.Now()
	wirePayload, zipped := wire.Compress(payload, compressMin)
	if zipped {
		flags |= wire.FlagCompressed
	}
	encNs += time.Since(start)
	cw := &countWriter{w: e.conn}
	err := wire.WriteFrame(cw, kind, flags, wirePayload)
	e.mu.Lock()
	e.wireBytes += cw.n
	e.payloadBytes += uint64(len(payload)) + wire.HeaderSize
	if zipped {
		e.compressed++
	}
	e.encodeNs += uint64(encNs)
	e.mu.Unlock()
	return err
}

// writeReports pushes one report batch.
func (e *Exporter) writeReports(batch []dataplane.Report) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	start := time.Now()
	e.payBuf = wire.AppendReports(e.payBuf[:0], e.cfg.SwitchID, batch)
	return e.writeFrameLocked(wire.KindReports, 0, e.payBuf, time.Since(start))
}

// writeSnapshotLocked pushes one epoch snapshot. The delta encoder
// commits its state at encode time, so any write failure resets it — the
// next frame after recovery is a keyframe the peer can ground on.
// Callers hold writeMu.
func (e *Exporter) writeSnapshotLocked(epoch uint32, banks []modules.BankSnapshot) error {
	start := time.Now()
	payload, flags := e.enc.Encode(e.payBuf[:0], epoch, banks)
	e.payBuf = payload
	err := e.writeFrameLocked(wire.KindSnapshot, flags, payload, time.Since(start))
	if err != nil {
		e.enc.Reset()
	}
	e.mu.Lock()
	e.deltaBanks, e.keyBanks = e.enc.DeltaBanks, e.enc.FullBanks
	e.mu.Unlock()
	return err
}

// writeBye sends the stream-closing stats frame.
func (e *Exporter) writeBye(st wire.ExportStats) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	payload, err := wire.AppendBye(e.payBuf[:0], st)
	e.payBuf = payload
	if err != nil {
		return err
	}
	return e.writeFrameLocked(wire.KindBye, 0, payload, 0)
}

// noteWriteErrLocked records a stream error (first one wins) and, when
// a redialer is configured, starts the background reconnect if one is
// not already running. Callers hold e.mu.
func (e *Exporter) noteWriteErrLocked(err error) {
	if err != nil && e.writeErr == nil {
		e.writeErr = err
	}
	if e.cfg.Redial == nil || e.reconnecting || e.closed {
		return
	}
	e.reconnecting = true
	e.wg.Add(1)
	go e.reconnectLoop()
}

// reconnectLoop redials the analyzer with capped exponential backoff.
// On success it sends a fresh hello, replays the latest cached epoch
// snapshot (so the analyzer's merge resumes from current state instead
// of waiting a full window), swaps the stream, and clears the error so
// the writer resumes exporting.
func (e *Exporter) reconnectLoop() {
	defer e.wg.Done()
	backoff := e.cfg.ReconnectMin
	for {
		select {
		case <-e.closeCh:
			e.mu.Lock()
			e.reconnecting = false
			e.mu.Unlock()
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > e.cfg.ReconnectMax {
			backoff = e.cfg.ReconnectMax
		}
		conn, err := e.cfg.Redial()
		if err != nil {
			continue
		}
		if err := negotiate(conn, e.cfg); err != nil {
			conn.Close()
			continue
		}
		// Swap the stream in and replay under one hold of writeMu: the
		// writer stays parked on writeErr until the replay lands, and no
		// ExportEpoch can recapture the cached banks mid-write. The reset
		// delta encoder guarantees the replay is a keyframe — the new peer
		// has no state to delta against.
		e.writeMu.Lock()
		old := e.conn
		e.conn = conn
		e.enc.Reset()
		replay := e.hasSnap
		if replay {
			err = e.writeSnapshotLocked(e.lastSnapEpoch, e.lastSnapBanks)
		}
		e.writeMu.Unlock()
		old.Close()
		if err != nil {
			conn.Close()
			continue
		}
		e.mu.Lock()
		e.writeErr = nil
		e.reconnecting = false
		e.reconnects++
		if replay {
			e.snapshots++
		}
		e.idle.Broadcast()
		e.mu.Unlock()
		return
	}
}

// ExportSnapshot pushes an epoch-boundary state-bank snapshot frame.
// Snapshots bypass the report ring: they are epoch-rate (one frame per
// window), must not be dropped (the analyzer's merge is only correct
// over complete epochs), and are written synchronously so the caller's
// epoch roll orders after the capture. The exporter keeps banks for
// replay until the next snapshot: the caller must not modify them.
func (e *Exporter) ExportSnapshot(epoch uint32, banks []modules.BankSnapshot) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	return e.exportSnapshotLocked(epoch, banks)
}

func (e *Exporter) exportSnapshotLocked(epoch uint32, banks []modules.BankSnapshot) error {
	// A bank set wider than one frame may declare fails here, where the
	// layout is configured, with the error the analyzer would have dropped
	// the stream for. There is then nothing to send, or to replay.
	if err := wire.CheckSnapshot(banks); err != nil {
		e.hasSnap = false
		return fmt.Errorf("telemetry: snapshot: %w", err)
	}
	// Cache first: if this write fails (or the stream is already down),
	// the reconnect replays the freshest state the switch had.
	e.lastSnapEpoch, e.lastSnapBanks, e.hasSnap = epoch, banks, true
	e.mu.Lock()
	degraded := e.writeErr
	e.mu.Unlock()
	if degraded != nil {
		return fmt.Errorf("telemetry: snapshot while stream down: %w", degraded)
	}
	err := e.writeSnapshotLocked(epoch, banks)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.noteWriteErrLocked(err)
		return fmt.Errorf("telemetry: snapshot: %w", err)
	}
	e.snapshots++
	return nil
}

// ExportEpoch snapshots every installed query's state banks on eng and
// pushes them tagged with the current (ending) epoch. Call immediately
// before rolling the epoch — rolled banks read as zero. The capture
// goes into a buffer the exporter keeps from epoch to epoch.
func (e *Exporter) ExportEpoch(eng *modules.Engine) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.snapBuf = eng.SnapshotBanksInto(e.snapBuf)
	if len(e.snapBuf) == 0 {
		// Nothing installed, nothing to send — or to replay: the capture
		// just overwrote the buffer a cached snapshot would alias.
		e.hasSnap = false
		return nil
	}
	return e.exportSnapshotLocked(eng.Layout().Epoch(), e.snapBuf)
}

// AttachAgent wires the exporter into a control-channel agent: epoch
// ticks from the controller snapshot-and-push the ending window's banks
// before rolling. Close detaches the hook.
func (e *Exporter) AttachAgent(a *rpc.Agent, eng *modules.Engine) {
	e.mu.Lock()
	e.agent = a
	e.mu.Unlock()
	a.SetTelemetryHooks(func() { _ = e.ExportEpoch(eng) })
}

// Detach removes this exporter's hooks from the attached agent (if
// any), so epoch ticks no longer call into it.
func (e *Exporter) Detach() {
	e.mu.Lock()
	a := e.agent
	e.agent = nil
	e.mu.Unlock()
	if a != nil {
		a.SetTelemetryHooks(nil)
	}
}

// Flush blocks until everything offered to Export so far has been
// written to the stream or accounted as lost/dropped.
func (e *Exporter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		dropped, _ := e.ring.stats()
		if e.exported+e.lost+dropped >= e.enqueued || e.writerEnd {
			return e.writeErr
		}
		e.idle.Wait()
	}
}

// Stats returns the exporter's counter snapshot. Dropped aggregates
// ring evictions and stream-error losses; a zero Dropped under
// PolicyBlock certifies lossless export.
func (e *Exporter) Stats() wire.ExportStats {
	dropped, overflows := e.ring.stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	return wire.ExportStats{
		Enqueued:   e.enqueued,
		Exported:   e.exported,
		Dropped:    dropped + e.lost,
		Overflows:  overflows,
		Batches:    e.batches,
		Snapshots:  e.snapshots,
		Reconnects: e.reconnects,

		WireBytes:        e.wireBytes,
		PayloadBytes:     e.payloadBytes,
		CompressedFrames: e.compressed,
		DeltaBanks:       e.deltaBanks,
		KeyframeBanks:    e.keyBanks,
		EncodeNs:         e.encodeNs,
	}
}

// Err returns the first stream error, if any.
func (e *Exporter) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeErr
}

// Close detaches any agent hooks, drains the ring (flushing every
// queued report), sends a bye frame with final counters, and closes the
// stream. Under PolicyBlock nothing offered before Close is lost unless
// the stream itself died.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.Detach()
	close(e.closeCh) // stop any in-flight reconnect backoff

	e.ring.close()
	e.wg.Wait() // writer drains all pending reports; reconnector exits

	st := e.Stats()
	_ = e.writeBye(st)
	e.writeMu.Lock()
	err := e.conn.Close()
	e.writeMu.Unlock()
	e.mu.Lock()
	werr := e.writeErr
	e.mu.Unlock()
	if werr != nil {
		return werr
	}
	return err
}
