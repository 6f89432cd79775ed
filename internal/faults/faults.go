// Package faults provides deterministic, seeded fault injection for the
// control and telemetry planes: net.Conn and net.Listener wrappers that
// reset, partition, or stall traffic on command or by seeded chance. The chaos tests and the netsim-backed chaos experiment
// build on it; production code never imports it.
//
// One Injector owns a seeded RNG and a shared fault state (partitioned,
// stalled); every connection wrapped by the same injector sees the same
// faults. Tests that need to target a single peer use one injector per
// peer.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjectedReset is the error every injected connection reset
// surfaces — the in-process stand-in for ECONNRESET.
var ErrInjectedReset = errors.New("faults: connection reset by injector")

// Config parameterizes an Injector. The zero value injects nothing; the
// levers are armed individually.
type Config struct {
	// Seed drives every probabilistic decision. Two injectors with the
	// same seed and the same op sequence make the same choices.
	Seed int64

	// ResetProb is the per-operation probability of an injected
	// connection reset. A reset conn fails every subsequent operation
	// and closes its underlying transport.
	ResetProb float64
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Resets   uint64 // connections reset
	Stalls   uint64 // operations that blocked on a stall window
	Rejected uint64 // operations failed by an active partition
}

// Injector is a fault source shared by the connections it wraps.
type Injector struct {
	mu          sync.Mutex
	rng         *rand.Rand
	cfg         Config
	partitioned bool
	stallCh     chan struct{} // non-nil while stalled; closed on Unstall
	stats       Stats
}

// New builds an injector from a config.
func New(cfg Config) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Partition makes every operation on every wrapped connection fail with
// ErrInjectedReset until Heal — the link is down but the endpoints are
// up, so redials through a wrapped listener fail the same way.
func (i *Injector) Partition() {
	i.mu.Lock()
	i.partitioned = true
	i.mu.Unlock()
}

// Heal ends a partition.
func (i *Injector) Heal() {
	i.mu.Lock()
	i.partitioned = false
	i.mu.Unlock()
}

// Stall makes every operation on every wrapped connection block until
// Unstall, the connection's deadline, or its close — the hung-peer
// fault deadline handling exists for.
func (i *Injector) Stall() {
	i.mu.Lock()
	if i.stallCh == nil {
		i.stallCh = make(chan struct{})
	}
	i.mu.Unlock()
}

// Unstall releases every operation blocked by Stall.
func (i *Injector) Unstall() {
	i.mu.Lock()
	if i.stallCh != nil {
		close(i.stallCh)
		i.stallCh = nil
	}
	i.mu.Unlock()
}

// Stats returns the running fault counts.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Conn wraps c so its reads and writes pass through the injector.
func (i *Injector) Conn(c net.Conn) net.Conn {
	return &conn{Conn: c, inj: i, closed: make(chan struct{})}
}

// Listener wraps ln so every accepted connection is fault-injected.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: i}
}

// Pipe returns a connected in-memory pair with the client end
// fault-injected (one injection point keeps op sequences deterministic).
func (i *Injector) Pipe() (client, server net.Conn) {
	c, s := net.Pipe()
	return i.Conn(c), s
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Conn(c), nil
}

// conn is one fault-injected connection.
type conn struct {
	net.Conn
	inj *Injector

	mu            sync.Mutex
	reset         bool
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// timeoutError mirrors the shape of an os deadline error so callers'
// net.Error/os.ErrDeadlineExceeded checks keep working on stalled ops.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faults: i/o timeout during injected stall" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
func (timeoutError) Unwrap() error   { return os.ErrDeadlineExceeded }

// gate applies the shared faults to one operation. It returns a non-nil
// error when the op must fail instead of reaching the transport.
func (c *conn) gate(deadline time.Time) error {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return ErrInjectedReset
	}
	c.mu.Unlock()

	i := c.inj
	i.mu.Lock()
	if i.partitioned {
		i.stats.Rejected++
		i.mu.Unlock()
		return ErrInjectedReset
	}
	stall := i.stallCh
	doReset := i.cfg.ResetProb > 0 && i.rng.Float64() < i.cfg.ResetProb
	if stall != nil {
		i.stats.Stalls++
	}
	i.mu.Unlock()

	if stall != nil {
		var timer <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			timer = t.C
		}
		select {
		case <-stall:
		case <-c.closed:
			return net.ErrClosed
		case <-timer:
			return timeoutError{}
		}
	}
	if doReset {
		c.doReset()
		return ErrInjectedReset
	}
	return nil
}

// doReset poisons the connection and tears down the transport so the
// peer observes the failure too.
func (c *conn) doReset() {
	c.mu.Lock()
	already := c.reset
	c.reset = true
	c.mu.Unlock()
	if !already {
		c.inj.mu.Lock()
		c.inj.stats.Resets++
		c.inj.mu.Unlock()
		c.Conn.Close()
	}
}

func (c *conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	dl := c.readDeadline
	c.mu.Unlock()
	if err := c.gate(dl); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

func (c *conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	dl := c.writeDeadline
	c.mu.Unlock()
	if err := c.gate(dl); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}
