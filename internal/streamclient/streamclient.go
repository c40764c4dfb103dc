// Package streamclient is the reusable client side of the streaming
// transport (POST /stream, package wire's frame grammar): dial with
// capped-exponential-backoff retries, hello/welcome handshake with
// version and frame-encoding negotiation, pipelined step frames answered
// in order, and a heartbeat that declares a silent connection dead instead
// of hanging its callers forever. The server never refuses a frame for
// load: while its queue is full it stops reading the connection, so a
// client that outruns it blocks in Step (TCP backpressure) and every
// frame executes in the order it was sent.
//
// It exists so the cluster coordinator (internal/cluster) and the example
// load generator (examples/client) share one tested implementation of the
// client protocol instead of a copy each.
//
// Usage:
//
//	c, err := streamclient.Dial("localhost:8080", "/stream", streamclient.Options{Dim: 2})
//	p, err := c.Step(batch)   // write one pipelined frame
//	ack, err := p.Wait()      // block for its in-order ack
//	p.Release()               // recycle the pending + ack buffers
//	c.Close()
//
// By default the client asks the server for the length-prefixed binary
// frame encoding (wire.WireBinary) and falls back to NDJSON transparently
// when the server is older or pinned; Options.Wire overrides. On the
// binary encoding the steady-state loop — encode step, read ack — runs at
// 0 allocs/op: Step encodes the caller's batch before it returns (so the
// batch may be reused at once) and Wait's ack aliases a pooled buffer
// that Release recycles.
//
// Dial bounds its reconnect storm: after Options.MaxAttempts failed
// connection attempts (with exponential, jittered backoff between them,
// capped at Options.MaxBackoff per wait) it gives up with a typed
// *protocol.UnreachableError, so a forwarding tier can surface "backend
// unreachable" to its own callers instead of blocking them indefinitely.
// A server that answers the handshake with an error frame (say
// bad_version) is NOT retried — it is reachable and said no.
package streamclient

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/wire"
)

// WireAuto asks the server for the binary encoding but accepts NDJSON
// when the server is older or pinned — the default negotiation policy.
const WireAuto = "auto"

// Options configures a Dial. The zero value uses the defaults below and
// disables the dimension check and the heartbeat.
type Options struct {
	// Dim, when nonzero, is sent in the hello so the server confirms the
	// session dimension before any step is pipelined.
	Dim int
	// Wire selects the frame-encoding negotiation: WireAuto (the default)
	// requests wire.WireBinary and falls back to NDJSON transparently —
	// both when a current server declines and when an older server
	// strict-rejects the unknown hello field; wire.WireBinary requires the
	// binary encoding (Dial fails when the server does not grant it);
	// wire.WireNDJSON never asks.
	Wire string
	// Window, when > 1, asks the server to accept that many pipelined step
	// frames in flight with suffix-replay reconciliation after a reconnect
	// (WelcomeFrame.Ring). The grant is whatever Welcome().Window reports —
	// possibly smaller, or absent (lockstep) from a server that keeps no
	// ack ring. A server so old it strict-rejects the unknown hello field
	// gets the same transparent downgrade as the wire negotiation: Dial
	// re-sends the hello without the field and runs lockstep.
	Window int
	// MaxAttempts bounds the connection attempts one Dial makes before
	// giving up with *protocol.UnreachableError. Default DefaultMaxAttempts.
	MaxAttempts int
	// BaseBackoff is the wait after the first failed attempt; each further
	// failure doubles it. Default DefaultBaseBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-wait backoff growth. Default DefaultMaxBackoff.
	MaxBackoff time.Duration
	// HeartbeatEvery, when positive, starts the liveness probe: a ping
	// frame rides the pipeline at this cadence, and when a ping has seen
	// no frame at all (ack, pong, anything) arrive for HeartbeatTimeout
	// the connection is declared dead (Err returns ErrHeartbeat and every
	// pending Wait unblocks) instead of hanging callers on a silent
	// socket. A tick that fires more than one period late gives no
	// verdict and probes afresh, so a pause of this process is not
	// mistaken for peer silence.
	HeartbeatEvery time.Duration
	// HeartbeatTimeout is how long a ping may go unanswered before the
	// connection is declared dead; default 3×HeartbeatEvery.
	HeartbeatTimeout time.Duration
	// HandshakeTimeout bounds one connection attempt end to end (TCP dial
	// through the welcome). A server that accepts the connection but never
	// answers the handshake is a transport failure like any other: the
	// attempt is abandoned and retried under the backoff policy instead of
	// blocking the caller forever. Default DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
}

// Defaults for the dial retry policy: 5 attempts with 25ms, 50ms, 100ms,
// 200ms jittered waits between them (~0.4s worst case per address) keep a
// coordinator's failover decision fast while still riding out a worker
// restart.
const (
	DefaultMaxAttempts = 5
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// DefaultHandshakeTimeout bounds one connection attempt (dial + hello +
// welcome) when Options.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 5 * time.Second

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = DefaultBaseBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.HeartbeatEvery > 0 && o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatEvery
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return o
}

// ErrHeartbeat reports a connection the heartbeat declared dead: no frame
// of any kind arrived for Options.HeartbeatTimeout after a ping was sent.
var ErrHeartbeat = errors.New("streamclient: heartbeat timeout, connection declared dead")

// ErrClosed reports an operation on a client after Close.
var ErrClosed = errors.New("streamclient: client closed")

// stepResult signals one resolved pending frame; the ack itself lives in
// the Pending's own buffer.
type stepResult struct {
	err error
}

// Pending is one in-flight step frame awaiting its ack. It is pooled:
// call Release after Wait to recycle it (and its ack buffers) into the
// connection's pool; skipping Release is safe but allocates.
type Pending struct {
	ch chan stepResult
	// ID is the frame id the client assigned (unique per connection,
	// monotonically increasing from 1).
	ID int64

	c        *Client
	ack      wire.AckFrame
	consumed bool
}

// Wait blocks for the frame's outcome: the typed ack, a per-frame error
// frame (as *wire.Error), or the connection's fatal error. The returned
// ack's slices alias this Pending's reusable buffer: they are valid until
// Release.
func (p *Pending) Wait() (wire.AckFrame, error) {
	res := <-p.ch
	p.consumed = true
	return p.ack, res.err
}

// Release recycles a waited Pending (and the ack buffer Wait returned)
// into the connection's pool. Call it once, after Wait and after the last
// read of the ack; a Pending whose Wait has not returned is left alone.
func (p *Pending) Release() {
	if p == nil || !p.consumed {
		return
	}
	c := p.c
	p.consumed = false
	p.c = nil
	p.ID = 0
	c.pendPool.Put(p)
}

// Client is one stream connection. Step may be called from any goroutine;
// replies arrive in submission order on the connection and are dispatched
// to each Pending.
type Client struct {
	opts    Options
	conn    net.Conn
	wmu     sync.Mutex // serializes frame writes (Step, pings, bye)
	payload []byte     // binary payload scratch, under wmu
	frame   []byte     // binary tag|len|payload scratch, under wmu
	welcome wire.WelcomeFrame
	binary  bool

	mu       sync.Mutex
	pending  map[int64]*Pending
	nextID   int64
	closed   bool
	pendPool sync.Pool

	// epoch anchors lastRecv to the monotonic clock: lastRecv holds the
	// time since epoch at which the most recent frame arrived.
	epoch    time.Time
	lastRecv atomic.Int64

	failOnce sync.Once
	fatal    atomic.Value // error
	done     chan struct{}
}

// Host extracts the dialable host:port from a base URL or a bare
// host[:port] string, accepting the same spellings the example client
// always has ("http://localhost:8080", "localhost:8080", "localhost").
func Host(base string) (string, error) {
	if !bytes.Contains([]byte(base), []byte("://")) {
		return base, nil
	}
	u, err := url.Parse(base)
	if err != nil {
		return "", err
	}
	if u.Host != "" {
		return u.Host, nil
	}
	return "", fmt.Errorf("streamclient: no host in %q", base)
}

// Dial connects to the streaming endpoint at path (usually "/stream") on
// base (a URL or host:port), retrying transport failures under the
// capped-backoff policy, and completes the hello/welcome handshake
// (including the frame-encoding negotiation; see Options.Wire). A
// handshake the server rejects with an error frame (bad_version, dimension
// mismatch) fails immediately — the server is reachable and said no; only
// transport failures are retried. When every attempt fails the returned
// error is a *protocol.UnreachableError carrying the attempt count and the
// last underlying error.
func Dial(base, path string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	host, err := Host(base)
	if err != nil {
		return nil, err
	}
	askWire := ""
	switch opts.Wire {
	case "", WireAuto, wire.WireBinary:
		askWire = wire.WireBinary
	case wire.WireNDJSON:
	default:
		return nil, fmt.Errorf("streamclient: unknown wire option %q", opts.Wire)
	}
	askWindow := 0
	if opts.Window > 1 {
		askWindow = opts.Window
	}
	var lastErr error
	backoff := opts.BaseBackoff
	for attempt := 1; ; attempt++ {
		c, err := dialOnce(host, path, opts, askWire, askWindow)
		if err == nil {
			if opts.Wire == wire.WireBinary && !c.binary {
				c.Close()
				return nil, fmt.Errorf("streamclient: server did not grant the required binary encoding")
			}
			return c, nil
		}
		var we *wire.Error
		if errors.As(err, &we) {
			// A server that predates one of the optional hello fields
			// strict-rejects it as a bad frame: fall back by dropping the
			// newest field first — the window, then the wire ask (a
			// protocol downgrade, not a transport failure). Any other
			// rejection is permanent — the server spoke and said no.
			if we.Code == wire.CodeBadFrame {
				if askWindow != 0 {
					askWindow = 0
					attempt--
					continue
				}
				if askWire != "" && opts.Wire != wire.WireBinary {
					askWire = ""
					attempt--
					continue
				}
			}
			return nil, err
		}
		lastErr = err
		if attempt >= opts.MaxAttempts {
			return nil, &protocol.UnreachableError{Addr: host, Attempts: attempt, Err: lastErr}
		}
		time.Sleep(Jitter(backoff))
		if backoff *= 2; backoff > opts.MaxBackoff {
			backoff = opts.MaxBackoff
		}
	}
}

// dialOnce makes one connection attempt: TCP dial, HTTP upgrade, hello
// (asking for askWire when nonempty), welcome. A server error frame during
// the handshake comes back as a *wire.Error (wrapped), which Dial treats
// as permanent (or as the fallback signal for the encoding downgrade).
func dialOnce(host, path string, opts Options, askWire string, askWindow int) (*Client, error) {
	conn, err := net.DialTimeout("tcp", host, opts.HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	// The whole handshake runs under one deadline, cleared once the welcome
	// arrives (steady-state liveness is the heartbeat's job, not the
	// socket's).
	_ = conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n", path, host); err != nil {
		conn.Close()
		return nil, err
	}
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !bytes.Contains([]byte(status), []byte("200")) {
		conn.Close()
		return nil, fmt.Errorf("streamclient: POST %s: %s", path, bytes.TrimSpace([]byte(status)))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		if line == "\r\n" {
			break
		}
	}

	c := &Client{
		opts:    opts,
		conn:    conn,
		pending: map[int64]*Pending{},
		epoch:   time.Now(),
		done:    make(chan struct{}),
	}
	c.pendPool.New = func() any { return &Pending{ch: make(chan stepResult, 1)} }
	hello := wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: opts.Dim, Wire: askWire, Window: askWindow}
	if err := c.writeJSONLocked(hello); err != nil {
		conn.Close()
		return nil, err
	}
	line, err := readLine(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := decodeExpected(line, wire.FrameWelcome, &c.welcome); err != nil {
		conn.Close()
		return nil, err
	}
	// The server confirms only encodings the hello asked for; everything
	// after the welcome speaks the confirmed encoding in both directions.
	c.binary = c.welcome.Wire == wire.WireBinary
	_ = conn.SetDeadline(time.Time{})
	c.lastRecv.Store(int64(time.Since(c.epoch)))
	go c.readLoop(br)
	if opts.HeartbeatEvery > 0 {
		go c.heartbeat()
	}
	return c, nil
}

// Welcome returns the handshake's welcome frame: the algorithm, the
// session's current step count (the reconciliation anchor after a
// reconnect), the dimension, the confirmed frame encoding, and — when the
// session has executed any step — the last executed step's exact outcome
// (Last).
func (c *Client) Welcome() wire.WelcomeFrame { return c.welcome }

// Wire reports the negotiated frame encoding: wire.WireBinary or
// wire.WireNDJSON.
func (c *Client) Wire() string {
	if c.binary {
		return wire.WireBinary
	}
	return wire.WireNDJSON
}

// Throttles returns 0: a server never refuses a frame for load (a full
// queue stalls the connection instead). It is kept only because the
// serving benchmark under perfbench/ reads it; drop it when that
// benchmark next changes.
func (c *Client) Throttles() int64 { return 0 }

// Err returns the connection's fatal error, or nil while it is healthy.
func (c *Client) Err() error {
	if v := c.fatal.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Done is closed when the connection dies (fatal error or Close).
func (c *Client) Done() <-chan struct{} { return c.done }

// Step writes one pipelined step frame and returns the Pending to Wait on.
// It does not block for the ack, so callers can keep frames in flight; it
// fails immediately when the connection is already dead. While the
// server's queue is full the write itself blocks (TCP backpressure).
//
// The batch is encoded before Step returns, so it only has to stay valid
// until then.
func (c *Client) Step(reqs []wire.Point) (*Pending, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if err := c.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	p := c.pendPool.Get().(*Pending)
	p.ID = id
	p.c = c
	c.pending[id] = p
	c.mu.Unlock()

	if err := c.writeStep(id, reqs); err != nil {
		c.fail(err)
		return nil, err
	}
	return p, nil
}

// Close sends a bye frame and tears the connection down. Callers should
// Wait their pending frames first — the server answers everything already
// submitted before honoring the bye, but Close does not wait for that.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.writeControl(wire.BinBye, wire.ByeFrame{V: wire.V1, Type: wire.FrameBye})
	c.fail(ErrClosed)
	return nil
}

// writeStep encodes and writes one step frame in the negotiated encoding.
// On the binary path the payload and frame scratch buffers are reused
// under the write lock, so the steady-state write allocates nothing.
func (c *Client) writeStep(id int64, reqs []wire.Point) error {
	if !c.binary {
		return c.writeJSONLocked(wire.StepFrame{V: wire.V1, Type: wire.FrameStep, ID: id, Requests: reqs})
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.payload = wire.AppendStepFrom(c.payload[:0], wire.V1, id, reqs)
	return c.writeBinaryLocked(wire.BinStep, c.payload)
}

// writeControl writes one control frame (ping, bye) in the negotiated
// encoding; binTag is its binary tag, v its NDJSON form.
func (c *Client) writeControl(binTag byte, v any) error {
	if !c.binary {
		return c.writeJSONLocked(v)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.payload = wire.AppendControl(c.payload[:0], wire.V1)
	return c.writeBinaryLocked(binTag, c.payload)
}

// writeJSONLocked marshals and writes one NDJSON frame under the write
// lock (Step, pings, and bye share the socket).
func (c *Client) writeJSONLocked(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err = c.conn.Write(append(data, '\n'))
	return err
}

// writeBinaryLocked assembles tag|uvarint(len)|payload into the frame
// scratch and writes it in one call; the caller holds wmu.
//
//moblint:hotpath
func (c *Client) writeBinaryLocked(tag byte, payload []byte) error {
	c.frame = append(c.frame[:0], tag)
	var head [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(head[:], uint64(len(payload)))
	c.frame = append(c.frame, head[:n]...)
	c.frame = append(c.frame, payload...)
	_, err := c.conn.Write(c.frame)
	return err
}

// fail ends the connection once: records the fatal error, closes the
// socket, resolves every pending frame with the error, and closes Done.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.fatal.Store(err)
		c.conn.Close()
		c.mu.Lock()
		for id, p := range c.pending {
			delete(c.pending, id)
			p.ch <- stepResult{err: err}
		}
		c.mu.Unlock()
		close(c.done)
	})
}

// take claims the pending entry for id, removing it from the in-flight
// map; nil when the id is unknown (answered twice, or a fatal teardown
// already resolved it).
func (c *Client) take(id int64) *Pending {
	c.mu.Lock()
	p := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return p
}

// readLoop dispatches received frames in the negotiated encoding: every
// frame stamps the liveness clock, acks and per-frame errors resolve
// their Pending, pongs are liveness only, and a connection-level error
// frame, a frame of any other type, or a read error kills the
// connection.
func (c *Client) readLoop(br *bufio.Reader) {
	if c.binary {
		c.readBinary(br)
		return
	}
	for {
		line, err := readLine(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRecv.Store(int64(time.Since(c.epoch)))
		head, err := wire.PeekFrame(line)
		if err != nil {
			c.fail(err)
			return
		}
		switch head.Type {
		case wire.FrameAck:
			var ack wire.AckFrame
			if err := wire.UnmarshalStrict(line, &ack); err != nil {
				c.fail(err)
				return
			}
			if p := c.take(ack.ID); p != nil {
				p.ack = ack
				p.ch <- stepResult{}
			}
		case wire.FramePong:
			// Liveness only; the lastRecv stamp above did the work.
		case wire.FrameError:
			var ef wire.ErrorFrame
			if err := wire.UnmarshalStrict(line, &ef); err != nil {
				c.fail(err)
				return
			}
			if !c.errorFrame(ef) {
				return
			}
		default:
			c.fail(fmt.Errorf("streamclient: unexpected %s frame", head.Type))
			return
		}
	}
}

// readBinary is readLoop on the binary encoding. Acks decode straight
// into the waiting Pending's reusable frame (BinaryAckID picks the target
// before the full decode), so the steady-state receive allocates nothing.
func (c *Client) readBinary(br *bufio.Reader) {
	var buf []byte
	for {
		tag, payload, err := wire.ReadBinaryFrame(br, &buf, wire.DefaultMaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRecv.Store(int64(time.Since(c.epoch)))
		switch tag {
		case wire.BinAck:
			id, err := wire.BinaryAckID(payload)
			if err != nil {
				c.fail(err)
				return
			}
			p := c.take(id)
			if p == nil {
				continue
			}
			if err := wire.DecodeAck(payload, &p.ack); err != nil {
				c.fail(err)
				return
			}
			p.ch <- stepResult{}
		case wire.BinPong:
			// Liveness only.
		case wire.BinError:
			var ef wire.ErrorFrame
			if err := wire.DecodeErrorFrame(payload, &ef); err != nil {
				c.fail(err)
				return
			}
			if !c.errorFrame(ef) {
				return
			}
		default:
			c.fail(fmt.Errorf("streamclient: unexpected binary frame 0x%x", tag))
			return
		}
	}
}

// errorFrame handles a received error frame: a per-frame rejection
// resolves just that Pending and reports true (the stream lives); a
// connection-level error kills the connection and reports false.
func (c *Client) errorFrame(ef wire.ErrorFrame) bool {
	e := ef.Err
	if ef.ID != nil {
		if p := c.take(*ef.ID); p != nil {
			p.ch <- stepResult{err: &e}
		}
		return true
	}
	c.fail(&e)
	return false
}

// heartbeat pings at the configured cadence and judges each tick with
// heartbeatTick. Any received frame answers every ping sent before it:
// pongs ride the same ordered reply queue as acks, so one arriving proves
// the server's whole pipeline (reader, step loop, writer) is alive, not
// just the TCP connection.
func (c *Client) heartbeat() {
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	prev := time.Now()
	var probe time.Time
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			now := time.Now()
			recv := c.epoch.Add(time.Duration(c.lastRecv.Load()))
			var dead bool
			probe, dead = heartbeatTick(now, prev, probe, recv, c.opts.HeartbeatEvery, c.opts.HeartbeatTimeout)
			if dead {
				c.fail(ErrHeartbeat)
				return
			}
			prev = now
			_ = c.writeControl(wire.BinPing, wire.PingFrame{V: wire.V1, Type: wire.FramePing})
		}
	}
}

// heartbeatTick judges one heartbeat tick at now. prev is the previous
// tick, recv the arrival of the latest frame, and probe the send time of
// the oldest ping no frame has answered since (zero when none is
// outstanding). It returns the probe to carry forward — every tick sends
// a ping — and whether the peer is dead, which only a ping that has gone
// unanswered for longer than timeout can show. A tick that fires more
// than one period late gives no verdict and starts a fresh probe: this
// process was paused, and the pause, not the peer, may have held the
// frames back.
func heartbeatTick(now, prev, probe, recv time.Time, every, timeout time.Duration) (time.Time, bool) {
	switch {
	case now.Sub(prev) > 2*every:
		return now, false
	case probe.IsZero() || !recv.Before(probe):
		return now, false
	default:
		return probe, now.Sub(probe) > timeout
	}
}

// readLine returns the next non-empty NDJSON line.
func readLine(br *bufio.Reader) ([]byte, error) {
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			// ReadBytes reuses no buffer, but trim shares storage; copy so
			// the caller owns the line.
			out := make([]byte, len(trimmed))
			copy(out, trimmed)
			return out, nil
		}
	}
}

// decodeExpected strictly decodes line into v after checking its type,
// surfacing a typed server error frame as *wire.Error.
func decodeExpected(line []byte, wantType string, v any) error {
	head, err := wire.PeekFrame(line)
	if err != nil {
		return err
	}
	if head.Type == wire.FrameError {
		var ef wire.ErrorFrame
		if err := wire.UnmarshalStrict(line, &ef); err == nil {
			e := ef.Err
			return fmt.Errorf("streamclient: server rejected handshake: %w", &e)
		}
	}
	if head.Type != wantType {
		return fmt.Errorf("streamclient: got %s frame, want %s", head.Type, wantType)
	}
	return wire.UnmarshalStrict(line, v)
}

// Jitter spreads a wait by ±20%, so many clients told to retry at the same
// moment do not re-stampede a bounded queue (or a restarting worker) in
// lockstep. It draws from math/rand/v2's global source: backoff spreading
// wants each process desynchronized, which is exactly what the
// deterministic packages forbid and a retry path needs.
func Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}
