package streamclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/wire"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 1}
	s, err := server.New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		_ = s.Close()
	})
	return ts
}

func fastOpts() Options {
	return Options{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
}

// TestPipelineAcksInOrder drives a real server: pipelined frames are acked
// in submission order with consecutive step indices.
func TestPipelineAcksInOrder(t *testing.T) {
	ts := testServer(t)
	c, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := c.Welcome(); w.T != 0 || w.Algorithm == "" {
		t.Fatalf("welcome = %+v", w)
	}

	const frames = 20
	pends := make([]*Pending, frames)
	for i := range pends {
		p, err := c.Step([]wire.Point{{float64(i), 1}})
		if err != nil {
			t.Fatal(err)
		}
		pends[i] = p
	}
	lastT := -1
	for i, p := range pends {
		ack, err := p.Wait()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ack.ID != p.ID || ack.Accepted != 1 {
			t.Fatalf("frame %d ack = %+v", i, ack)
		}
		if ack.T < lastT {
			t.Fatalf("step indices regressed: %d after %d", ack.T, lastT)
		}
		lastT = ack.T
	}
}

// TestDialUnreachableTyped pins the bounded reconnect storm: a dead
// address fails after exactly MaxAttempts tries with a typed
// *protocol.UnreachableError.
func TestDialUnreachableTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	opts := fastOpts()
	_, err = Dial(addr, "/stream", opts)
	var ue *protocol.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("dial dead address = %v, want *protocol.UnreachableError", err)
	}
	if ue.Attempts != opts.MaxAttempts || ue.Addr != addr {
		t.Fatalf("unreachable = %+v, want %d attempts against %s", ue, opts.MaxAttempts, addr)
	}
}

// TestDialRejectionNotRetried pins the retry/refusal split over real TCP:
// a server that ANSWERS the hello with an error frame (here: a version it
// does not speak) is reachable and said no — exactly one connection
// attempt, and the typed wire error surfaces to the caller.
func TestDialRejectionNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for { // consume the upgrade request head
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						break
					}
				}
				// The client reads the upgrade response before it speaks.
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n")
				if _, err := br.ReadString('\n'); err != nil { // the hello
					return
				}
				frame, _ := json.Marshal(wire.ErrorFrame{V: wire.V1, Type: wire.FrameError,
					Err: wire.Error{Code: wire.CodeBadVersion, Detail: "speak v1"}})
				conn.Write(append(frame, '\n'))
			}(conn)
		}
	}()

	_, err = Dial(ln.Addr().String(), "/stream", fastOpts())
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("rejected handshake = %v, want *wire.Error", err)
	}
	if we.Code != wire.CodeBadVersion {
		t.Fatalf("rejection code = %q, want %q", we.Code, wire.CodeBadVersion)
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want exactly 1 (refusals must not be retried)", got)
	}
}

// TestDialDimMismatchPermanent drives the same split against the real
// server: a dimension the session does not serve is a permanent refusal.
func TestDialDimMismatchPermanent(t *testing.T) {
	ts := testServer(t)
	_, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 5})
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("dim-mismatch dial = %v, want *wire.Error", err)
	}
	if we.Code != wire.CodeBadRequest {
		t.Fatalf("dim mismatch code = %q", we.Code)
	}
}

// TestHandshakeTimeout: a server that accepts the connection but never
// answers is a transport failure (retried, then typed unreachable), not a
// hang.
func TestHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and say nothing
		}
	}()
	opts := fastOpts()
	opts.MaxAttempts = 2
	opts.HandshakeTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err = Dial(ln.Addr().String(), "/stream", opts)
	var ue *protocol.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("dial mute server = %v, want *protocol.UnreachableError", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("dial against a mute server took %v, want bounded by the handshake timeout", took)
	}
}

// TestHeartbeatKillsSilentConnection: after the handshake the server goes
// mute; the ping cadence must declare the connection dead, resolve the
// pending frame with ErrHeartbeat, and close Done.
func TestHeartbeatKillsSilentConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if line == "\r\n" {
				break
			}
		}
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\n\r\n")
		if _, err := br.ReadString('\n'); err != nil { // the hello
			return
		}
		welcome, _ := json.Marshal(wire.WelcomeFrame{V: wire.V1, Type: wire.FrameWelcome, Algorithm: "mute", Dim: 2})
		conn.Write(append(welcome, '\n'))
		// From here on: read everything, answer nothing.
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), "/stream", Options{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Step([]wire.Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); !errors.Is(err, ErrHeartbeat) {
		t.Fatalf("pending on a silent connection = %v, want ErrHeartbeat", err)
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after heartbeat death")
	}
	if !errors.Is(c.Err(), ErrHeartbeat) {
		t.Fatalf("Err = %v, want ErrHeartbeat", c.Err())
	}
	if _, err := c.Step([]wire.Point{{1, 2}}); !errors.Is(err, ErrHeartbeat) {
		t.Fatalf("Step on a dead connection = %v, want ErrHeartbeat", err)
	}
}

// TestHeartbeatKeepsIdleConnectionAlive is the inverse: a healthy but IDLE
// connection must not be declared dead — pongs answer the pings and reset
// the silence clock.
func TestHeartbeatKeepsIdleConnectionAlive(t *testing.T) {
	ts := testServer(t)
	c, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2, HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(100 * time.Millisecond) // many heartbeat timeouts of idleness
	if err := c.Err(); err != nil {
		t.Fatalf("idle healthy connection died: %v", err)
	}
	p, err := c.Step([]wire.Point{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := p.Wait(); err != nil || ack.T != 0 {
		t.Fatalf("step after idle period = %+v, %v", ack, err)
	}
}

// TestHost pins the address spellings Dial accepts.
func TestHost(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8080":        "localhost:8080",
		"localhost":             "localhost",
		"http://localhost:8080": "localhost:8080",
		"http://example.com":    "example.com",
	} {
		got, err := Host(in)
		if err != nil || got != want {
			t.Fatalf("Host(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Host("http://"); err == nil {
		t.Fatal("Host with no host must fail")
	}
}

// TestJitterBounds: ±20%, and zero stays zero.
func TestJitterBounds(t *testing.T) {
	const d = time.Second
	for i := 0; i < 200; i++ {
		j := Jitter(d)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("Jitter(%v) = %v, outside ±20%%", d, j)
		}
	}
	if Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
}

// TestWelcomeCarriesRecovery: after steps execute, a fresh lockstep
// connection's welcome carries a one-entry ring holding the last executed
// step's outcome — the anchor cluster failover reconciles against.
func TestWelcomeCarriesRecovery(t *testing.T) {
	ts := testServer(t)
	c, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Step([]wire.Point{{3, 4}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := Dial(ts.Listener.Addr().String(), "/stream", Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	w := c2.Welcome()
	if w.T != 1 || len(w.Ring) != 1 || w.Window != 0 {
		t.Fatalf("welcome after one step = %+v, want a lockstep grant and a one-entry ring", w)
	}
	last := w.Ring[0]
	if last.T != 0 || last.Batched != 2 || last.Cost != ack.Cost || last.Clamped != ack.Clamped {
		t.Fatalf("welcome recovery payload = %+v, want step 0 ack %+v", last, ack)
	}
	if len(last.Positions) != 1 || !reflect.DeepEqual(last.Positions, ack.Positions) {
		t.Fatalf("recovery positions = %v, want %v", last.Positions, ack.Positions)
	}
}

// TestStrings keeps the error strings typed enough to grep in logs.
func TestStrings(t *testing.T) {
	ue := &protocol.UnreachableError{Addr: "w1:9001", Attempts: 5, Err: errors.New("connection refused")}
	if !strings.Contains(ue.Error(), "w1:9001") || !strings.Contains(ue.Error(), "5") {
		t.Fatalf("UnreachableError string = %q", ue)
	}
}
