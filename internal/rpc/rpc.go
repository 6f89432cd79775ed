// Package rpc is the control channel between the Newton controller and
// switch agents — the role P4Runtime plays on real Tofino deployments.
// It carries installs, removals, window-epoch ticks, and report drains
// over TCP, using only the standard library. Every request and response
// is one internal/wire frame (KindRequest, KindResponse) holding wire's
// binary control message; a drain's reports travel as wire's columnar
// report batch. An install carries no JSON of the engine's structs: its
// program is internal/wire's program encoding, the rules it installs,
// which the agent decodes into one arena per program and hands to
// Engine.Install, where every field is checked against modules' domain
// table before anything reaches the packet path.
//
// Each end keeps its framing memory per connection — a wire.FrameReader
// and FrameWriter, the encode buffer, the request or response it decodes
// into — so a call in steady state allocates only what the engine does.
// A peer that speaks an older length-framed JSON channel fails the frame
// header's magic: the agent surfaces the error through OnError and
// executes nothing.
//
// The length-framed JSON encoding (WriteFrame/ReadFrame) now carries only
// the hello / hello-ack handshake that opens a telemetry stream
// (internal/telemetry); everything after it is internal/wire's.
//
// A switch-side Agent wraps a module engine; a controller-side Client
// dials it:
//
//	agent := rpc.NewAgent(sw, eng)
//	go agent.Serve(listener)
//	...
//	c, _ := rpc.Dial(addr)
//	c.Install(program)
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/wire"
)

// MaxFrame bounds one telemetry hello or ack.
const MaxFrame = 8 << 20

// ErrFrameTooLarge is returned when a hello frame exceeds MaxFrame in
// either direction: an outbound message that would not fit, or an
// inbound header announcing an oversized body (a poisoned or misframed
// peer).
var ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")

// ErrMalformedResponse is returned when the agent answers OK but the
// response is missing the payload the request implies (e.g. a stats
// reply without stats).
var ErrMalformedResponse = errors.New("rpc: malformed response: missing payload")

// ErrClientClosed is returned by every call on a Client after Close —
// including a call whose round trip was in flight when Close severed
// the connection. It replaces the raw "use of closed network
// connection" string the net package surfaces.
var ErrClientClosed = errors.New("rpc: client closed")

// Agent error codes: machine-checkable classifications of application
// errors the agent returns, carried alongside the message so retrying
// controllers can treat level-triggered outcomes ("the query is
// already there", "it is already gone") as convergence, not failure.
const (
	CodeAlreadyInstalled = "already_installed"
	CodeNotInstalled     = "not_installed"
)

// AgentError is an application-level error from the agent: the request
// reached the agent and was rejected. It is never retried — the
// connection stays healthy.
type AgentError struct {
	Code string // one of the Code* constants, or "" for uncategorized
	Msg  string
}

func (e *AgentError) Error() string { return "rpc: agent: " + e.Msg }

// Is answers errors.Is from the code: a classified rejection is the
// engine error errResponse classified, so a caller tells "already
// there" and "already gone" the same way over the wire as in process.
func (e *AgentError) Is(target error) bool {
	switch e.Code {
	case CodeAlreadyInstalled:
		return target == modules.ErrAlreadyInstalled
	case CodeNotInstalled:
		return target == modules.ErrNotInstalled
	}
	return false
}

// WriteFrame sends one length-prefixed JSON message: a telemetry hello
// or ack.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: encoding: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: outbound frame of %d bytes", ErrFrameTooLarge, len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadFrame receives one length-prefixed JSON message into v. The body
// grows as its bytes arrive (wire.ReadPayload), not from the header.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: inbound frame of %d bytes", ErrFrameTooLarge, n)
	}
	body, err := wire.ReadPayload(r, nil, int(n))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("rpc: decoding: %w", err)
	}
	return nil
}

// Agent is the switch-side control endpoint.
type Agent struct {
	mu  sync.Mutex
	sw  *dataplane.Switch
	eng *modules.Engine

	// OnEpoch, when set, runs at every window end before the roll — the
	// telemetry exporter ships the window's reports, then the ending
	// epoch's banks (they read as zero once the epoch advances). It runs
	// under the dispatch lock, ordered with installs and drains. Unset,
	// reports wait on the switch for a drain.
	OnEpoch func()

	// OnError, when set, receives connection-level errors that are not
	// clean shutdowns (EOF, closed connections). When nil such errors are
	// counted but otherwise dropped; ConnErrors exposes the count.
	OnError func(error)

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	ln        net.Listener
	closed    bool
	connErrs  uint64
	servingWG sync.WaitGroup

	// Dispatch accounting (atomic): total requests dispatched and how
	// many were answered from the replay cache.
	requests   uint64
	replayHits uint64

	// Replay cache (under mu): responses to recently executed requests
	// by request ID, so a retransmitted call — same ID, usually on a
	// fresh connection after a redial — is answered from cache instead
	// of executed twice. Bounded two ways: FIFO count (replayCap) and
	// age (replayTTL) — a retransmit only ever arrives within a few
	// retry backoffs of the original, so entries older than the TTL are
	// dead weight that a long-lived low-rate agent would otherwise hold
	// for the capped maximum forever. The entries are a ring in
	// insertion order, oldest at replayHead, that the map indexes by ID:
	// it grows to replayCap and then recycles its slots.
	replay     map[uint64]int
	replayRing []replayEntry
	replayHead int

	// nowFn overrides the replay cache clock in tests; nil means
	// time.Now.
	nowFn func() time.Time

	// Drain cursor (under mu): how many fresh drains have been served,
	// and the last batch for re-delivery when the client's ack shows it
	// never received the previous response.
	drainSeq  uint64
	lastDrain []dataplane.Report
}

// replayCap bounds the replay cache by count; replayTTL bounds it by
// age. Retransmits arrive within a few RTTs of the original (the
// client's entire retry budget spans seconds), so anything minutes old
// has aged out of relevance.
const (
	replayCap = 256
	replayTTL = 2 * time.Minute
)

// replayEntry is one cached response, the request ID it answers, and
// its insertion time, for age-based eviction.
type replayEntry struct {
	id   uint64
	resp wire.Response
	at   time.Time
}

// NewAgent wraps a switch and its module engine.
func NewAgent(sw *dataplane.Switch, eng *modules.Engine) *Agent {
	return &Agent{sw: sw, eng: eng, conns: map[net.Conn]struct{}{},
		replay: map[uint64]int{}}
}

// Switch returns the switch the agent serves.
func (a *Agent) Switch() *dataplane.Switch { return a.sw }

// ReplayCacheLen returns the current replay cache population.
func (a *Agent) ReplayCacheLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.replay)
}

// ReplayHits returns how many requests were answered from the replay
// cache instead of re-executed.
func (a *Agent) ReplayHits() uint64 { return atomic.LoadUint64(&a.replayHits) }

// SetTelemetryHooks installs (or, with nil, removes) the telemetry
// exporter's epoch hook under the dispatch lock, so it may be swapped
// while the agent is serving.
func (a *Agent) SetTelemetryHooks(onEpoch func()) {
	a.mu.Lock()
	a.OnEpoch = onEpoch
	a.mu.Unlock()
}

// Serve accepts controller connections until the listener closes (or
// Close is called).
func (a *Agent) Serve(ln net.Listener) error {
	a.connMu.Lock()
	if a.closed {
		a.connMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	a.ln = ln
	a.servingWG.Add(1)
	a.connMu.Unlock()
	defer a.servingWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.HandleConn(conn)
		}()
	}
}

// track registers a live connection; it reports false when the agent is
// already closed (the connection must not be served).
func (a *Agent) track(conn net.Conn) bool {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	if a.closed {
		return false
	}
	a.conns[conn] = struct{}{}
	return true
}

func (a *Agent) untrack(conn net.Conn) {
	a.connMu.Lock()
	delete(a.conns, conn)
	a.connMu.Unlock()
}

// surfaceErr routes a non-clean connection error to the error callback.
func (a *Agent) surfaceErr(err error) {
	a.connMu.Lock()
	a.connErrs++
	cb := a.OnError
	a.connMu.Unlock()
	if cb != nil {
		cb(err)
	}
}

// ConnErrors returns how many connections ended with a non-clean error.
func (a *Agent) ConnErrors() uint64 {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	return a.connErrs
}

// cleanConnErr reports whether err is an expected way for a control
// connection to end: the peer hung up or the socket was closed under us.
func cleanConnErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed)
}

// frameStall bounds the rest of a request frame once its first bytes
// are in. A connection idle between frames stays open, since clients
// keep theirs across calls; a peer that stalls inside a frame would
// otherwise hold the handler and its frame buffers for good.
const frameStall = 2 * time.Second

// stallReader is a connection as the agent's FrameReader reads it: a
// frame's first bytes start a timer that, unless frameDone stops it
// within frameStall, moves the read deadline into the past, so the read
// waiting on the rest fails with os.ErrDeadlineExceeded. The one timer
// is reset per frame, so no frame sets a deadline or allocates.
type stallReader struct {
	conn  net.Conn
	timer *time.Timer
	armed bool
}

func newStallReader(conn net.Conn) *stallReader {
	t := time.AfterFunc(frameStall, func() { conn.SetReadDeadline(time.Unix(1, 0)) })
	t.Stop()
	return &stallReader{conn: conn, timer: t}
}

func (s *stallReader) Read(p []byte) (int, error) {
	n, err := s.conn.Read(p)
	if n > 0 && !s.armed {
		s.armed = true
		s.timer.Reset(frameStall)
	}
	return n, err
}

// frameDone disarms the timer once a frame is whole.
func (s *stallReader) frameDone() {
	s.armed = false
	s.timer.Stop()
}

// HandleConn serves one controller connection (exported so tests can
// drive net.Pipe ends directly). Errors other than a clean peer
// shutdown are surfaced through OnError instead of being swallowed; a
// frame that is not a well-formed request ends the connection before
// anything in it runs, and so does one whose rest takes longer than
// frameStall to arrive.
func (a *Agent) HandleConn(conn net.Conn) {
	if !a.track(conn) {
		conn.Close()
		return
	}
	sr := newStallReader(conn)
	defer func() {
		sr.frameDone()
		a.untrack(conn)
		conn.Close()
	}()
	fr, fw := wire.NewFrameReader(sr), wire.NewFrameWriter(conn)
	var req wire.Request
	var out []byte
	for {
		err := readRequest(fr, &req)
		sr.frameDone()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("frame unfinished %v after its first bytes: %w", frameStall, err)
		}
		if err != nil {
			if !cleanConnErr(err) {
				a.surfaceErr(fmt.Errorf("rpc: agent read: %w", err))
			}
			return
		}
		resp := a.dispatch(&req)
		out = wire.AppendResponse(out[:0], &resp)
		if _, err := fw.WriteFrame(wire.KindResponse, 0, out); err != nil {
			if !cleanConnErr(err) {
				a.surfaceErr(fmt.Errorf("rpc: agent write: %w", err))
			}
			return
		}
	}
}

// nextPayload reads the next frame, which must be of kind, and returns
// its payload.
func nextPayload(fr *wire.FrameReader, kind wire.Kind) ([]byte, error) {
	hdr, payload, err := fr.Next()
	if err == nil && hdr.Kind != kind {
		err = fmt.Errorf("%w: %v frame where a %v belongs", wire.ErrMalformed, hdr.Kind, kind)
	}
	return payload, err
}

// readRequest reads the next frame into req: it must be a request.
func readRequest(fr *wire.FrameReader, req *wire.Request) error {
	payload, err := nextPayload(fr, wire.KindRequest)
	if err != nil {
		return err
	}
	return wire.DecodeRequest(req, payload)
}

// Close shuts the agent down: the listener stops accepting, every live
// connection is closed, and Close blocks until all handler goroutines
// have drained. The agent cannot be reused afterwards.
func (a *Agent) Close() error {
	a.connMu.Lock()
	if a.closed {
		a.connMu.Unlock()
		return nil
	}
	a.closed = true
	ln := a.ln
	conns := make([]net.Conn, 0, len(a.conns))
	for c := range a.conns {
		conns = append(conns, c)
	}
	a.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	a.servingWG.Wait()
	a.wg.Wait()
	return nil
}

func (a *Agent) dispatch(req *wire.Request) wire.Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	atomic.AddUint64(&a.requests, 1)
	now := time.Now()
	if a.nowFn != nil {
		now = a.nowFn()
	}
	// Age out stale entries first — the ring is insertion-ordered, so
	// expired entries cluster at its head.
	for len(a.replay) > 0 && now.Sub(a.replayRing[a.replayHead].at) > replayTTL {
		a.evictOldestLocked()
	}
	if req.ID != 0 {
		if i, ok := a.replay[req.ID]; ok {
			// A retransmit of a call that already executed: replay the
			// original response instead of running the op twice.
			atomic.AddUint64(&a.replayHits, 1)
			return a.replayRing[i].resp
		}
	}
	resp := a.execute(req)
	resp.ID = req.ID
	if req.ID != 0 {
		if len(a.replay) == replayCap {
			a.evictOldestLocked()
		}
		e := replayEntry{id: req.ID, resp: resp, at: now}
		i := (a.replayHead + len(a.replay)) % replayCap
		if i == len(a.replayRing) {
			a.replayRing = append(a.replayRing, e)
		} else {
			a.replayRing[i] = e
		}
		a.replay[req.ID] = i
	}
	return resp
}

// evictOldestLocked drops the replay cache's oldest entry.
func (a *Agent) evictOldestLocked() {
	e := &a.replayRing[a.replayHead]
	delete(a.replay, e.id)
	*e = replayEntry{}
	a.replayHead = (a.replayHead + 1) % replayCap
}

// errResponse classifies an engine error so retrying controllers can
// distinguish level-triggered outcomes from real failures.
func errResponse(err error) wire.Response {
	resp := wire.Response{Error: err.Error()}
	if errors.Is(err, modules.ErrAlreadyInstalled) {
		resp.Code = CodeAlreadyInstalled
	} else if errors.Is(err, modules.ErrNotInstalled) {
		resp.Code = CodeNotInstalled
	}
	return resp
}

// execute runs one request under the dispatch lock.
func (a *Agent) execute(req *wire.Request) wire.Response {
	switch req.Call {
	case wire.CallInstall:
		if len(req.Program) == 0 {
			return wire.Response{Error: "install without program"}
		}
		p, err := wire.DecodeProgram(req.Program)
		if err != nil {
			return errResponse(err)
		}
		if err := a.eng.Install(p); err != nil {
			return errResponse(err)
		}
		return wire.Response{OK: true}
	case wire.CallRemove:
		if err := a.eng.Remove(req.QID); err != nil {
			return errResponse(err)
		}
		return wire.Response{OK: true}
	case wire.CallStats:
		return wire.Response{OK: true, HasStats: true, Stats: wire.Stats{
			RuleEntries: a.eng.Layout().TotalRuleEntries(),
			Installed:   a.eng.InstalledCount(),
		}}
	case wire.CallDrain:
		return a.drain(req)
	case wire.CallEpoch:
		a.nextEpochLocked()
		return wire.Response{OK: true}
	}
	return wire.Response{Error: fmt.Sprintf("unknown request call %d", req.Call)}
}

// NextEpoch is the switch's one window end, which an epoch request
// and a local clock (netsim's, in a fleet or newton-agent's replay) both
// run: the OnEpoch hook, then the engine's roll, under the dispatch lock.
func (a *Agent) NextEpoch() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextEpochLocked()
}

func (a *Agent) nextEpochLocked() {
	if a.OnEpoch != nil {
		a.OnEpoch()
	}
	a.eng.RollEpoch()
}

// drain serves a drain request under the cursor discipline: an ack equal
// to the current cursor means the previous batch arrived, so the switch
// buffer is drained afresh; an ack one behind means the previous
// response was lost in flight, so that batch is re-delivered unchanged.
// Any other ack (an agent restart, or a client resync) serves fresh and
// jumps the cursor past the ack. The cursor assumes a single draining
// controller per agent, which is the deployment shape.
func (a *Agent) drain(req *wire.Request) wire.Response {
	switch {
	case req.DrainAck == a.drainSeq:
		a.lastDrain = a.sw.DrainReports()
		a.drainSeq++
	case req.DrainAck == a.drainSeq-1:
		// Re-delivery: the client never saw the cursor advance.
	default:
		a.lastDrain = a.sw.DrainReports()
		if req.DrainAck > a.drainSeq {
			a.drainSeq = req.DrainAck
		}
		a.drainSeq++
	}
	return wire.Response{OK: true, Reports: a.lastDrain, Cursor: a.drainSeq}
}

// Options harden a Client against an imperfect network. The zero value
// reproduces the original behavior: no deadlines, no retries, no
// redial.
type Options struct {
	// Timeout bounds each attempt's write and read via the connection's
	// SetWriteDeadline/SetReadDeadline (0 = no deadline). A stalled
	// agent therefore cannot block a call past Timeout per attempt.
	Timeout time.Duration

	// Retries is how many additional attempts follow a transient
	// transport failure (resets, timeouts, torn frames). Application
	// errors from the agent are never retried. Every client operation
	// is retry-safe: the agent's replay cache deduplicates by request
	// ID and drains carry an explicit cursor.
	Retries int

	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts (defaults 10ms and 1s). Each sleep is jittered
	// to half-to-full of the nominal step.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed drives the backoff jitter (deterministic tests).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	return o
}

// Counters is the client's running reliability accounting.
type Counters struct {
	Retries uint64 // attempts beyond the first
	Redials uint64 // connections re-established
}

// Client is the controller-side endpoint.
type Client struct {
	mu   sync.Mutex // serializes round trips
	opts Options
	rng  *rand.Rand

	redial func() (net.Conn, error)

	// stateMu guards conn and closed so Close can sever an in-flight
	// round trip without waiting for mu.
	stateMu sync.Mutex
	conn    net.Conn
	closed  bool
	closeCh chan struct{}

	drainAck uint64 // highest drain cursor received (under mu)
	// lastSwitch is the switch ID of the last report drained (under mu):
	// the next drain's reports of that switch share its string.
	lastSwitch string

	// The call's framing memory (under mu): the frame reader and writer
	// on framed, the connection they serve, the encoded request, the
	// program an install encodes, and the response decoded in place.
	framed net.Conn
	fr     *wire.FrameReader
	fw     *wire.FrameWriter
	out    []byte
	prog   []byte
	resp   wire.Response

	retries  uint64
	redials  uint64
	calls    uint64
	callErrs uint64

	// latency records whole-call round-trip times (including retries and
	// backoff sleeps — the latency the caller experienced). Always
	// allocated, so observation needs no nil check or registration race.
	latency *obs.Histogram
}

// reqSeq hands out process-unique request IDs; reqNonce, drawn once,
// separates clients in different processes talking to the same agent.
var (
	reqSeq   uint64
	reqNonce = uint64(rand.Uint32()) << 32
)

func nextReqID() uint64 { return reqNonce | (atomic.AddUint64(&reqSeq, 1) & 0xFFFFFFFF) }

// Dial connects to an agent's TCP address with zero Options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to an agent's TCP address with the given
// hardening options; transient failures redial the same address.
func DialOptions(addr string, opts Options) (*Client, error) {
	redial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	conn, err := redial()
	if err != nil {
		return nil, fmt.Errorf("rpc: dialing agent: %w", err)
	}
	return NewClientOptions(conn, opts, redial), nil
}

// NewClient wraps an established connection (e.g. one end of net.Pipe)
// with zero Options.
func NewClient(conn net.Conn) *Client { return NewClientOptions(conn, Options{}, nil) }

// NewClientOptions wraps an established connection with hardening
// options. redial, when non-nil, re-establishes the transport after a
// transient failure (between attempts and across calls).
func NewClientOptions(conn net.Conn, opts Options, redial func() (net.Conn, error)) *Client {
	opts = opts.withDefaults()
	return &Client{
		conn: conn, opts: opts, redial: redial,
		rng:     rand.New(rand.NewSource(opts.Seed + 1)),
		closeCh: make(chan struct{}),
		latency: obs.NewHistogram(obs.DefLatencyBuckets()),
	}
}

// Close severs the connection — including one with a round trip in
// flight, which then fails with ErrClientClosed — and makes every
// subsequent call fail fast with ErrClientClosed.
func (c *Client) Close() error {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	close(c.closeCh)
	c.stateMu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Counters returns the retry/redial accounting.
func (c *Client) Counters() Counters {
	return Counters{
		Retries: atomic.LoadUint64(&c.retries),
		Redials: atomic.LoadUint64(&c.redials),
	}
}

// isClosed reports whether Close has run.
func (c *Client) isClosed() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.closed
}

// currentConn returns the live connection, redialing if the previous
// one was torn down. It returns ErrClientClosed after Close.
func (c *Client) currentConn() (net.Conn, error) {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		return nil, ErrClientClosed
	}
	if c.conn != nil {
		conn := c.conn
		c.stateMu.Unlock()
		return conn, nil
	}
	c.stateMu.Unlock()
	if c.redial == nil {
		return nil, errors.New("rpc: connection lost and no redial configured")
	}
	conn, err := c.redial()
	if err != nil {
		return nil, err
	}
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		conn.Close()
		return nil, ErrClientClosed
	}
	c.conn = conn
	c.stateMu.Unlock()
	atomic.AddUint64(&c.redials, 1)
	return conn, nil
}

// dropConn tears down the connection after a transport failure so the
// next attempt starts on a fresh dial.
func (c *Client) dropConn(conn net.Conn) {
	conn.Close()
	c.stateMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.stateMu.Unlock()
}

// permanent reports whether a transport error cannot be cured by a
// retry: an oversized frame, either way, is deterministic.
func permanent(err error) bool { return errors.Is(err, wire.ErrTooLarge) }

// attempt sends the encoded request c.out on conn and reads the response
// into c.resp, under the per-attempt deadline. Any returned error is
// transport-level.
func (c *Client) attempt(conn net.Conn, id uint64) error {
	if c.framed != conn {
		c.framed, c.fr, c.fw = conn, wire.NewFrameReader(conn), wire.NewFrameWriter(conn)
	}
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	if _, err := c.fw.WriteFrame(wire.KindRequest, 0, c.out); err != nil {
		return err
	}
	if c.opts.Timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
	}
	payload, err := nextPayload(c.fr, wire.KindResponse)
	if err != nil {
		return err
	}
	if err := wire.DecodeResponse(&c.resp, payload, c.lastSwitch); err != nil {
		return fmt.Errorf("rpc: %w", err)
	}
	if c.opts.Timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	if c.resp.ID != 0 && c.resp.ID != id {
		// A late response to an earlier (timed-out) request: the stream
		// is desynchronized beyond repair — tear it down and retry.
		return fmt.Errorf("rpc: response for request %d on call %d: stream desynchronized", c.resp.ID, id)
	}
	return nil
}

// roundTripLocked performs one logical call with deadlines, retries,
// and redial, recording call count, errors, and whole-call latency
// (retries and backoff included — what the caller experienced). The
// response is the client's, valid while the caller holds c.mu.
func (c *Client) roundTripLocked(req wire.Request) (*wire.Response, error) {
	start := time.Now()
	resp, err := c.attemptsLocked(req)
	c.latency.Observe(uint64(time.Since(start)))
	atomic.AddUint64(&c.calls, 1)
	if err != nil {
		atomic.AddUint64(&c.callErrs, 1)
	}
	return resp, err
}

// attemptsLocked is the retry loop behind roundTripLocked. The caller
// holds c.mu. The request keeps one ID across every attempt, so the
// agent's replay cache makes retries exactly-once.
func (c *Client) attemptsLocked(req wire.Request) (*wire.Response, error) {
	req.ID = nextReqID()
	c.out = wire.AppendRequest(c.out[:0], &req)
	backoff := c.opts.BackoffBase
	for attempt := 0; ; attempt++ {
		if c.isClosed() {
			return nil, ErrClientClosed
		}
		conn, err := c.currentConn()
		if err == nil {
			err = c.attempt(conn, req.ID)
			if err == nil {
				if !c.resp.OK {
					return nil, &AgentError{Code: c.resp.Code, Msg: c.resp.Error}
				}
				return &c.resp, nil
			}
			if c.isClosed() {
				return nil, ErrClientClosed
			}
			if permanent(err) {
				return nil, err
			}
			c.dropConn(conn)
		} else if errors.Is(err, ErrClientClosed) {
			return nil, err
		}
		if attempt >= c.opts.Retries {
			return nil, err
		}
		atomic.AddUint64(&c.retries, 1)
		// Capped exponential backoff, jittered to half-to-full.
		sleep := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(sleep):
		case <-c.closeCh:
			return nil, ErrClientClosed
		}
		if backoff *= 2; backoff > c.opts.BackoffMax {
			backoff = c.opts.BackoffMax
		}
	}
}

// Install loads a compiled program into the remote engine. The program
// travels in internal/wire's program encoding, built in a buffer the
// client keeps.
func (c *Client) Install(p *modules.Program) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prog = wire.AppendProgram(c.prog[:0], p)
	_, err := c.roundTripLocked(wire.Request{Call: wire.CallInstall, Program: c.prog})
	return err
}

// Remove uninstalls a query by QID.
func (c *Client) Remove(qid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTripLocked(wire.Request{Call: wire.CallRemove, QID: qid})
	return err
}

// Stats fetches the remote rule/program counts.
func (c *Client) Stats() (wire.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTripLocked(wire.Request{Call: wire.CallStats})
	if err != nil {
		return wire.Stats{}, err
	}
	if !resp.HasStats {
		return wire.Stats{}, fmt.Errorf("%w: stats", ErrMalformedResponse)
	}
	return resp.Stats, nil
}

// DrainReports pulls and clears the remote report buffer. The call is
// retry-safe: the drain cursor acknowledges each received batch, so a
// drain retried after a lost response re-delivers that batch instead of
// dropping it or delivering it twice. The returned slice is the
// caller's.
func (c *Client) DrainReports() ([]dataplane.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTripLocked(wire.Request{Call: wire.CallDrain, DrainAck: c.drainAck})
	if err != nil {
		return nil, err
	}
	c.drainAck = resp.Cursor
	rs := resp.Reports
	resp.Reports = nil
	if len(rs) > 0 {
		c.lastSwitch = rs[len(rs)-1].SwitchID
	}
	return rs, nil
}

// NextEpoch rolls the remote register windows (the controller's 100 ms
// tick).
func (c *Client) NextEpoch() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTripLocked(wire.Request{Call: wire.CallEpoch})
	return err
}
