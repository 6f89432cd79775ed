// Package rpc is the control channel between the Newton controller and
// switch agents — the role P4Runtime plays on real Tofino deployments.
// It carries compiled programs, rule operations, window-epoch ticks, and
// report drains over TCP as length-framed JSON messages, using only the
// standard library.
//
// The same length-framed encoding (WriteFrame/ReadFrame) carries the
// hello / hello-ack handshake that opens a telemetry stream
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
	"sync"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
)

// MaxFrame bounds one message (a compiled program is a few KB; a report
// drain or telemetry batch a few hundred KB at worst).
const MaxFrame = 8 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame in either
// direction: an outbound message that would not fit, or an inbound
// header announcing an oversized body (a poisoned or misframed peer).
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

// Message types.
const (
	typeInstall = "install"
	typeRemove  = "remove"
	typeStats   = "stats"
	typeDrain   = "drain_reports"
	typeEpoch   = "next_epoch"
)

// Request is one controller → agent message.
type Request struct {
	Type    string           `json:"type"`
	QID     int              `json:"qid,omitempty"`
	Program *modules.Program `json:"program,omitempty"`

	// ID identifies the logical call. A client reuses the same ID across
	// retry attempts of one call, so the agent's replay cache can answer
	// a retransmit with the original response instead of executing the
	// operation twice (at-most-once execution under retries). Zero means
	// "no replay protection" (hand-rolled or legacy peers).
	ID uint64 `json:"id,omitempty"`

	// DrainAck (drain_reports only) acknowledges the highest drain
	// Cursor the client has received. The agent serves a fresh batch
	// when the ack matches its cursor and re-delivers the previous batch
	// when the ack trails by one — so a drain retried after a lost
	// response never double-delivers and never loses reports.
	DrainAck uint64 `json:"drain_ack,omitempty"`
}

// Stats is the agent's rule/program accounting.
type Stats struct {
	RuleEntries int `json:"rule_entries"`
	Installed   int `json:"installed"`
}

// Response is one agent → controller message.
type Response struct {
	OK      bool               `json:"ok"`
	Error   string             `json:"error,omitempty"`
	Code    string             `json:"code,omitempty"` // machine-checkable error class
	ID      uint64             `json:"id,omitempty"`   // echo of the request ID
	Cursor  uint64             `json:"cursor,omitempty"`
	Stats   *Stats             `json:"stats,omitempty"`
	Reports []dataplane.Report `json:"reports,omitempty"`
}

// WriteFrame sends one length-prefixed JSON message.
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

// ReadFrame receives one length-prefixed JSON message into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: inbound frame of %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
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

	// OnEpoch, when set, runs on every next_epoch request before the
	// register windows roll — the telemetry exporter's chance to snapshot
	// the ending epoch's state banks (their values read as zero once the
	// epoch advances). It runs under the agent's dispatch lock, so it is
	// ordered with installs and drains.
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
	// for the capped maximum forever.
	replay     map[uint64]replayEntry
	replayFIFO []uint64

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

// replayEntry is one cached response plus its insertion time, for
// age-based eviction.
type replayEntry struct {
	resp *Response
	at   time.Time
}

// NewAgent wraps a switch and its module engine.
func NewAgent(sw *dataplane.Switch, eng *modules.Engine) *Agent {
	return &Agent{sw: sw, eng: eng, conns: map[net.Conn]struct{}{},
		replay: map[uint64]replayEntry{}}
}

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

// HandleConn serves one controller connection (exported so tests can
// drive net.Pipe ends directly). Errors other than a clean peer
// shutdown are surfaced through OnError instead of being swallowed.
func (a *Agent) HandleConn(conn net.Conn) {
	if !a.track(conn) {
		conn.Close()
		return
	}
	defer func() {
		a.untrack(conn)
		conn.Close()
	}()
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			if !cleanConnErr(err) {
				a.surfaceErr(fmt.Errorf("rpc: agent read: %w", err))
			}
			return
		}
		resp := a.dispatch(&req)
		if err := WriteFrame(conn, resp); err != nil {
			if !cleanConnErr(err) {
				a.surfaceErr(fmt.Errorf("rpc: agent write: %w", err))
			}
			return
		}
	}
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

func (a *Agent) dispatch(req *Request) *Response {
	a.mu.Lock()
	defer a.mu.Unlock()
	atomic.AddUint64(&a.requests, 1)
	now := time.Now()
	if a.nowFn != nil {
		now = a.nowFn()
	}
	// Age out stale entries first — replayFIFO is insertion-ordered, so
	// expired entries cluster at the front.
	for len(a.replayFIFO) > 0 {
		id := a.replayFIFO[0]
		if now.Sub(a.replay[id].at) <= replayTTL {
			break
		}
		delete(a.replay, id)
		a.replayFIFO = a.replayFIFO[1:]
	}
	if req.ID != 0 {
		if cached, ok := a.replay[req.ID]; ok {
			// A retransmit of a call that already executed: replay the
			// original response instead of running the op twice.
			atomic.AddUint64(&a.replayHits, 1)
			return cached.resp
		}
	}
	resp := a.execute(req)
	resp.ID = req.ID
	if req.ID != 0 {
		if len(a.replayFIFO) >= replayCap {
			delete(a.replay, a.replayFIFO[0])
			a.replayFIFO = a.replayFIFO[1:]
		}
		a.replay[req.ID] = replayEntry{resp: resp, at: now}
		a.replayFIFO = append(a.replayFIFO, req.ID)
	}
	return resp
}

// errResponse classifies an engine error so retrying controllers can
// distinguish level-triggered outcomes from real failures.
func errResponse(err error) *Response {
	resp := &Response{Error: err.Error()}
	if errors.Is(err, modules.ErrAlreadyInstalled) {
		resp.Code = CodeAlreadyInstalled
	} else if errors.Is(err, modules.ErrNotInstalled) {
		resp.Code = CodeNotInstalled
	}
	return resp
}

// execute runs one request under the dispatch lock.
func (a *Agent) execute(req *Request) *Response {
	switch req.Type {
	case typeInstall:
		if req.Program == nil {
			return &Response{Error: "install without program"}
		}
		if err := a.eng.Install(req.Program); err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}
	case typeRemove:
		if err := a.eng.Remove(req.QID); err != nil {
			return errResponse(err)
		}
		return &Response{OK: true}
	case typeStats:
		return &Response{OK: true, Stats: &Stats{
			RuleEntries: a.eng.Layout().TotalRuleEntries(),
			Installed:   a.eng.InstalledCount(),
		}}
	case typeDrain:
		return a.drain(req)
	case typeEpoch:
		a.nextEpochLocked()
		return &Response{OK: true}
	}
	return &Response{Error: fmt.Sprintf("unknown request type %q", req.Type)}
}

// NextEpoch ends the switch's evaluation window as a next_epoch request
// does — the OnEpoch hook, then the engine's roll — under the dispatch
// lock, so a local window clock (newton-agent's replay loop) never rolls
// beside a controller's install or remove.
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

// drain serves drain_reports under the cursor discipline: an ack equal
// to the current cursor means the previous batch arrived, so the switch
// buffer is drained afresh; an ack one behind means the previous
// response was lost in flight, so that batch is re-delivered unchanged.
// Any other ack (an agent restart, or a client resync) serves fresh and
// jumps the cursor past the ack. The cursor assumes a single draining
// controller per agent, which is the deployment shape.
func (a *Agent) drain(req *Request) *Response {
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
	return &Response{OK: true, Reports: a.lastDrain, Cursor: a.drainSeq}
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

	retries  uint64
	redials  uint64
	calls    uint64
	callErrs uint64

	// latency records whole-call round-trip times (including retries and
	// backoff sleeps — the latency the caller experienced). Always
	// allocated, so observation needs no nil check or registration race.
	latency *obs.Histogram
}

// reqSeq hands out process-unique request IDs; reqNonce separates
// clients in different processes talking to the same agent.
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
// retry (oversized or unencodable frames are deterministic).
func permanent(err error) bool {
	return errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrMalformedResponse)
}

// attempt runs one write/read exchange on conn under the per-attempt
// deadline. Any returned error is transport-level.
func (c *Client) attempt(conn net.Conn, req *Request) (*Response, error) {
	if c.opts.Timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := WriteFrame(conn, req); err != nil {
		return nil, err
	}
	if c.opts.Timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		return nil, err
	}
	if c.opts.Timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	if resp.ID != 0 && resp.ID != req.ID {
		// A late response to an earlier (timed-out) request: the stream
		// is desynchronized beyond repair — tear it down and retry.
		return nil, fmt.Errorf("rpc: response for request %d on call %d: stream desynchronized", resp.ID, req.ID)
	}
	return &resp, nil
}

// roundTripLocked performs one logical call with deadlines, retries,
// and redial, recording call count, errors, and whole-call latency
// (retries and backoff included — what the caller experienced).
func (c *Client) roundTripLocked(req *Request) (*Response, error) {
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
func (c *Client) attemptsLocked(req *Request) (*Response, error) {
	req.ID = nextReqID()
	backoff := c.opts.BackoffBase
	for attempt := 0; ; attempt++ {
		if c.isClosed() {
			return nil, ErrClientClosed
		}
		conn, err := c.currentConn()
		if err == nil {
			var resp *Response
			resp, err = c.attempt(conn, req)
			if err == nil {
				if !resp.OK {
					return nil, &AgentError{Code: resp.Code, Msg: resp.Error}
				}
				return resp, nil
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

func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(req)
}

// Install loads a compiled program into the remote engine.
func (c *Client) Install(p *modules.Program) error {
	_, err := c.roundTrip(&Request{Type: typeInstall, Program: p})
	return err
}

// Remove uninstalls a query by QID.
func (c *Client) Remove(qid int) error {
	_, err := c.roundTrip(&Request{Type: typeRemove, QID: qid})
	return err
}

// Stats fetches the remote rule/program counts.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(&Request{Type: typeStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, fmt.Errorf("%w: stats", ErrMalformedResponse)
	}
	return *resp.Stats, nil
}

// DrainReports pulls and clears the remote report buffer. The call is
// retry-safe: the drain cursor acknowledges each received batch, so a
// drain retried after a lost response re-delivers that batch instead of
// dropping it or delivering it twice.
func (c *Client) DrainReports() ([]dataplane.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTripLocked(&Request{Type: typeDrain, DrainAck: c.drainAck})
	if err != nil {
		return nil, err
	}
	c.drainAck = resp.Cursor
	return resp.Reports, nil
}

// NextEpoch rolls the remote register windows (the controller's 100 ms
// tick).
func (c *Client) NextEpoch() error {
	_, err := c.roundTrip(&Request{Type: typeEpoch})
	return err
}
