package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/streamclient"
	"repro/internal/wire"
)

// streamConn is a minimal NDJSON stream client for tests: it speaks the
// POST /stream upgrade by hand so the tests exercise the real wire bytes.
type streamConn struct {
	t    testing.TB
	conn net.Conn
	br   *bufio.Reader
}

func dialStream(t testing.TB, ts *httptest.Server) *streamConn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "POST /stream HTTP/1.1\r\nHost: stream-test\r\nContent-Length: 0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("POST /stream status line = %q", status)
	}
	for { // skip response headers
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	c := &streamConn{t: t, conn: conn, br: br}
	t.Cleanup(func() { conn.Close() })
	return c
}

func (c *streamConn) send(v any) {
	c.t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.conn.Write(append(data, '\n')); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads the next frame line and strictly decodes it into v after
// checking the envelope's type.
func (c *streamConn) recv(wantType string, v any) {
	c.t.Helper()
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("reading %s frame: %v", wantType, err)
	}
	head, err := wire.PeekFrame(line)
	if err != nil {
		c.t.Fatalf("peek %q: %v", line, err)
	}
	if head.Type != wantType {
		c.t.Fatalf("got %s frame, want %s: %s", head.Type, wantType, line)
	}
	if err := wire.UnmarshalStrict(line, v); err != nil {
		c.t.Fatalf("decode %s: %v", line, err)
	}
}

// hello performs the handshake and returns the welcome.
func (c *streamConn) hello(dim int) wire.WelcomeFrame {
	c.t.Helper()
	c.send(wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: dim})
	var w wire.WelcomeFrame
	c.recv(wire.FrameWelcome, &w)
	if w.V != wire.V1 {
		c.t.Fatalf("welcome v = %d", w.V)
	}
	return w
}

func (c *streamConn) step(id int64, reqs []wire.Point) {
	c.t.Helper()
	c.send(wire.StepFrame{V: wire.V1, Type: wire.FrameStep, ID: id, Requests: reqs})
}

// TestStreamPipeline: a client pipelines many step frames over one
// connection; every frame is acked in submission order, every request is
// counted exactly once, and the cost sum over unique steps reconciles with
// GET /metrics — the same invariant the HTTP e2e test pins.
func TestStreamPipeline(t *testing.T) {
	const frames, perFrame = 60, 2
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CoalesceWindow: time.Millisecond,
		QueueLimit:     128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	w := c.hello(cfg.Dim)
	if w.T != 0 || w.Algorithm == "" || w.Dim != cfg.Dim {
		t.Fatalf("welcome = %+v", w)
	}

	// Pipeline every frame up front, then read all acks.
	for id := int64(1); id <= frames; id++ {
		c.step(id, reqsFor(int(id), perFrame))
	}
	accepted := 0
	costs := map[int]wire.Cost{}
	lastT := -1
	for id := int64(1); id <= frames; id++ {
		var ack wire.AckFrame
		c.recv(wire.FrameAck, &ack)
		if ack.ID != id {
			t.Fatalf("ack order broken: got id %d, want %d", ack.ID, id)
		}
		if ack.Accepted != perFrame {
			t.Fatalf("ack %d accepted = %d", id, ack.Accepted)
		}
		if ack.T < lastT {
			t.Fatalf("step indices regressed: %d after %d", ack.T, lastT)
		}
		lastT = ack.T
		accepted += ack.Accepted
		costs[ack.T] = ack.Cost
	}
	c.send(wire.ByeFrame{V: wire.V1, Type: wire.FrameBye})

	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Requests != frames*perFrame || accepted != frames*perFrame {
		t.Fatalf("requests = %d (client %d), want %d", m.Requests, accepted, frames*perFrame)
	}
	if m.Steps != len(costs) {
		t.Fatalf("unique acked steps %d != server steps %d", len(costs), m.Steps)
	}
	var total float64
	for _, c := range costs {
		total += c.Total
	}
	if diff := total - m.Cost.Total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost reconciliation: client %v vs server %v", total, m.Cost.Total)
	}
	if m.Steps >= frames {
		t.Fatalf("pipelined frames never coalesced: %d steps from %d frames", m.Steps, frames)
	}
}

// TestStreamVersionMismatch pins version negotiation: a hello with an
// unknown major is answered by a connection-level error frame with code
// bad_version, and the server closes the stream.
func TestStreamVersionMismatch(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.send(wire.HelloFrame{V: 99, Type: wire.FrameHello})
	var e wire.ErrorFrame
	c.recv(wire.FrameError, &e)
	if e.Err.Code != wire.CodeBadVersion {
		t.Fatalf("error code = %q, want %q", e.Err.Code, wire.CodeBadVersion)
	}
	if e.ID != nil {
		t.Fatalf("connection-level error must carry no id: %+v", e)
	}
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server must close the stream after a version mismatch")
	}

	// Wrong dimension in an otherwise valid hello is also fatal.
	c2 := dialStream(t, ts)
	c2.send(wire.HelloFrame{V: wire.V1, Type: wire.FrameHello, Dim: cfg.Dim + 1})
	c2.recv(wire.FrameError, &e)
	if e.Err.Code != wire.CodeBadRequest {
		t.Fatalf("dim mismatch code = %q, want %q", e.Err.Code, wire.CodeBadRequest)
	}
}

// sleepObserver slows every engine step down by its duration, so a
// pipelining client outruns the step loop and keeps the queue full.
type sleepObserver time.Duration

func (d sleepObserver) Observe(engine.StepInfo) { time.Sleep(time.Duration(d)) }

// TestStreamKeepsOrderUnderBackpressure is the stream's ordering
// invariant under overload, on both encodings: one client pipelines far
// more frames than the queue holds into a slow, non-coalescing server.
// The full queue must stall the reader rather than refuse or reorder
// frames — ack i carries step i — and /metrics and /state must be
// byte-identical to a server fed the same batches one Submit at a time.
func TestStreamKeepsOrderUnderBackpressure(t *testing.T) {
	const frames = 400
	cfg := testConfig(1)
	batch := func(i int) []wire.Point { return reqsFor(i, 1+i%3) }

	ref, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < frames; i++ {
		reqs, err := wire.ToPoints(batch(i), cfg.Dim)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Service().Submit(reqs); err != nil {
			t.Fatal(err)
		}
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	for _, enc := range []string{wire.WireNDJSON, wire.WireBinary} {
		t.Run(enc, func(t *testing.T) {
			s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
				QueueLimit: 2,
				NoCoalesce: true,
				Observers:  []engine.Observer{sleepObserver(500 * time.Microsecond)},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			c, err := streamclient.Dial(ts.URL, "/stream", streamclient.Options{Dim: cfg.Dim, Wire: enc})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pends := make([]*streamclient.Pending, frames)
			for i := range pends {
				if pends[i], err = c.Step(batch(i)); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			for i, p := range pends {
				ack, err := p.Wait()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if ack.T != i || ack.Accepted != len(batch(i)) || ack.Batched != len(batch(i)) {
					t.Fatalf("frame %d acked as step %d (accepted %d, batched %d): frames ran out of order",
						i, ack.T, ack.Accepted, ack.Batched)
				}
				p.Release()
			}
			for _, path := range []string{"/metrics", "/state"} {
				if got, want := rawGet(t, ts.URL+path), rawGet(t, refTS.URL+path); !bytes.Equal(got, want) {
					t.Fatalf("%s differs from one-Submit-at-a-time serving:\nstream: %s\nsubmit: %s", path, got, want)
				}
			}
		})
	}
}

// TestStreamCloseWhileReaderWaits pins shutdown against a stalled
// reader: with the step loop parked and the queue full, the stream
// reader waits on a third frame; Close must still return, the two queued
// frames are executed and acked, and the waiting frame is answered
// shutting_down without ever reaching the session.
func TestStreamCloseWhileReaderWaits(t *testing.T) {
	cfg := testConfig(1)
	obs := &blockingObserver{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		QueueLimit: 1,
		Observers:  []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.hello(0)
	c.step(1, reqsFor(0, 1))
	<-obs.entered // loop is parked inside frame 1's step
	c.step(2, reqsFor(1, 1))
	waitQueueDepth(t, s, 1) // frame 2 holds the only slot
	c.step(3, reqsFor(2, 1))
	time.Sleep(20 * time.Millisecond) // let the reader reach the full queue

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.Service().Closing() {
		time.Sleep(time.Millisecond)
	}
	go func() {
		obs.release <- struct{}{}
		<-obs.entered
		obs.release <- struct{}{}
	}()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while a stream reader waited on the full queue")
	}

	for id := int64(1); id <= 2; id++ {
		var ack wire.AckFrame
		c.recv(wire.FrameAck, &ack)
		if ack.ID != id || ack.T != int(id-1) {
			t.Fatalf("ack %d = %+v", id, ack)
		}
	}
	var e wire.ErrorFrame
	c.recv(wire.FrameError, &e)
	if e.ID == nil || *e.ID != 3 || e.Err.Code != wire.CodeShuttingDown {
		t.Fatalf("waiting frame answered %+v, want shutting_down for id 3", e)
	}
	if m := s.Service().Metrics(); m.Steps != 2 || m.Requests != 2 || m.Rejected != 0 {
		t.Fatalf("metrics = %+v, want only the two acked frames counted", m)
	}
}

// waitQueueDepth polls until the service queue holds want batches, so the
// test can order reader-side enqueues deterministically.
func waitQueueDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Service().QueueDepth() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached depth %d", want)
}

// TestStreamDisconnectResume pins the reconnect contract: after an abrupt
// disconnect, the welcome of a fresh stream reports the session's step
// count — covering steps that executed but whose acks were lost — so the
// client resumes from the last acked step without losing or double-feeding
// a batch.
func TestStreamDisconnectResume(t *testing.T) {
	const before, after = 5, 4
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First connection: five acked steps, sent one at a time so each is
	// its own engine step.
	c1 := dialStream(t, ts)
	if w := c1.hello(0); w.T != 0 {
		t.Fatalf("fresh welcome T = %d", w.T)
	}
	for id := int64(1); id <= before; id++ {
		c1.step(id, reqsFor(int(id), 1))
		var ack wire.AckFrame
		c1.recv(wire.FrameAck, &ack)
		if ack.T != int(id-1) {
			t.Fatalf("ack %d T = %d", id, ack.T)
		}
	}
	// One more frame whose ack the client never reads: the step executes
	// server-side (wait for it), then the connection dies abruptly.
	c1.step(before+1, reqsFor(before+1, 1))
	deadline := time.Now().Add(2 * time.Second)
	for s.T() < before+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c1.conn.Close()

	// Reconnect: the welcome reports every executed step, including the
	// unacked one, so the client knows batch before+1 must NOT be resent.
	c2 := dialStream(t, ts)
	w := c2.hello(0)
	if w.T != before+1 {
		t.Fatalf("resumed welcome T = %d, want %d", w.T, before+1)
	}
	for i := 0; i < after; i++ {
		c2.step(int64(100+i), reqsFor(100+i, 1))
		var ack wire.AckFrame
		c2.recv(wire.FrameAck, &ack)
		if ack.T != before+1+i {
			t.Fatalf("post-resume ack T = %d, want %d", ack.T, before+1+i)
		}
	}

	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Steps != before+1+after || m.Requests != before+1+after {
		t.Fatalf("metrics = %d steps / %d requests, want %d (no loss, no double-feed)", m.Steps, m.Requests, before+1+after)
	}
}

// TestStreamRejectsMalformedFrames: unknown fields and unknown types are
// typed errors, not silent no-ops.
func TestStreamRejectsMalformedFrames(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Misspelled field inside a step frame: fatal bad_frame (strict
	// decoding cannot tell what the client meant).
	c := dialStream(t, ts)
	c.hello(0)
	if _, err := c.conn.Write([]byte(`{"v":1,"type":"step","id":1,"reqeusts":[[1,2]]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorFrame
	c.recv(wire.FrameError, &e)
	if e.Err.Code != wire.CodeBadFrame {
		t.Fatalf("misspelled field code = %q, want %q", e.Err.Code, wire.CodeBadFrame)
	}

	// Bad payload (dimension mismatch) is per-frame: the identified frame
	// errors, the stream survives.
	c2 := dialStream(t, ts)
	c2.hello(0)
	c2.step(7, []wire.Point{{1, 2, 3}})
	c2.recv(wire.FrameError, &e)
	if e.Err.Code != wire.CodeBadRequest || e.ID == nil || *e.ID != 7 {
		t.Fatalf("bad payload error = %+v", e)
	}
	c2.step(8, reqsFor(0, 1))
	var ack wire.AckFrame
	c2.recv(wire.FrameAck, &ack)
	if ack.ID != 8 || ack.T != 0 {
		t.Fatalf("stream did not survive a per-frame rejection: %+v", ack)
	}

	// A frame type outside the grammar — here the retired throttle frame,
	// as NDJSON and as the unassigned binary tag 0x05 — is fatal bad_frame.
	c3 := dialStream(t, ts)
	c3.hello(0)
	if _, err := c3.conn.Write([]byte(`{"v":1,"type":"throttle","id":1,"retry_after_ms":5}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var te wire.ErrorFrame
	c3.recv(wire.FrameError, &te)
	if te.Err.Code != wire.CodeBadFrame || te.ID != nil {
		t.Fatalf("throttle frame answered %+v, want a fatal bad_frame", te)
	}
	c4 := dialStream(t, ts)
	if w := c4.helloWire(0, wire.WireBinary); w.Wire != wire.WireBinary {
		t.Fatalf("welcome wire = %q", w.Wire)
	}
	c4.sendBinary(0x05, []byte{1, 2, 5})
	var be wire.ErrorFrame
	if err := wire.DecodeErrorFrame(c4.recvBinary(wire.BinError), &be); err != nil {
		t.Fatal(err)
	}
	if be.Err.Code != wire.CodeBadFrame || be.ID != nil {
		t.Fatalf("binary tag 0x05 answered %+v, want a fatal bad_frame", be)
	}

	if m := s.Service().Metrics(); m.Requests != 1 {
		t.Fatalf("rejected frames half-applied: %d requests, want 1", m.Requests)
	}
}

// TestStreamShardedAcks: against a router-mode server, pipelined stream
// acks carry per-shard payloads that stay internally consistent — the
// routed counts sum to the ack's batch size even while the next step is
// already overwriting the router's own buffers (the regression: acks must
// carry a copy of the per-shard stats, not alias them; -race covers the
// aliasing directly).
func TestStreamShardedAcks(t *testing.T) {
	const frames, perFrame = 50, 4
	cfg := shardedTestConfig(3, 2)
	s, err := NewSharded(cfg, shard.Starts(cfg, 5), newMtCK, Options{QueueLimit: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := dialStream(t, ts)
	c.hello(cfg.Dim)
	for id := int64(1); id <= frames; id++ {
		c.step(id, spreadReqs(int(id), perFrame))
	}
	for id := int64(1); id <= frames; id++ {
		var ack wire.AckFrame
		c.recv(wire.FrameAck, &ack)
		if len(ack.Shards) != 3 {
			t.Fatalf("ack %d carries %d shard payloads, want 3", id, len(ack.Shards))
		}
		routed := 0
		for _, sh := range ack.Shards {
			routed += sh.Routed
		}
		if routed != ack.Batched {
			t.Fatalf("ack %d: shard routed counts sum to %d, batched %d (torn per-shard stats)", id, routed, ack.Batched)
		}
	}
}

// TestSSEMetricsStream: GET /metrics/stream pushes one event per executed
// step, SSE-framed, with the step index as the event id.
func TestSSEMetricsStream(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("GET /metrics/stream = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	const steps = 3
	go func() {
		for i := 0; i < steps; i++ {
			postJSON(t, ts.URL, wire.StepRequest{Requests: reqsFor(i, 2)})
		}
	}()

	br := bufio.NewReader(resp.Body)
	for i := 0; i < steps; i++ {
		var id string
		var ev wire.MetricsEvent
		for { // one SSE event: id/event/data lines up to a blank line
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				if got := strings.TrimPrefix(line, "event: "); got != "metrics" {
					t.Fatalf("event type = %q", got)
				}
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					t.Fatal(err)
				}
			case line == "":
				goto parsed
			}
		}
	parsed:
		if ev.V != wire.V1 || ev.T != i || ev.Steps != i+1 || ev.Requests != (i+1)*2 || ev.Batched != 2 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if id != fmt.Sprint(ev.T) {
			t.Fatalf("SSE id %q != step %d", id, ev.T)
		}
	}
}

// TestStepRejectsUnknownFields is the HTTP-side strict-decoding
// regression: a misspelled or extra field in a POST /step body answers
// 400 and feeds nothing into the session.
func TestStepRejectsUnknownFields(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"request":[[1,2]]}`,             // misspelled: would have half-applied as an empty step
		`{"requests":[[1,2]],"window":5}`, // unknown extra field
	} {
		resp, err := http.Post(ts.URL+"/step", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Steps != 0 || m.Requests != 0 {
		t.Fatalf("malformed bodies reached the session: %+v", m)
	}
}

// TestSSERebalanceEvent: a step that migrates a server pushes a typed
// "rebalance" event on GET /metrics/stream right after that step's metrics
// event, and GET /state reports the migrated layout.
func TestSSERebalanceEvent(t *testing.T) {
	cfg := shardedTestConfig(4, 2)
	s, err := NewSharded(cfg, shard.Starts(cfg, 5), newMtCK,
		Options{Rebalancer: &shard.Threshold{WindowSteps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A tight hotspot parked in shard 3: the threshold policy migrates a
	// server from shard 2 once its 4-step window fills.
	const steps = 12
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		for i := 0; i < steps; i++ {
			reqs := make([]wire.Point, 6)
			for j := range reqs {
				a := float64(i*6 + j)
				reqs[j] = wire.Point{15 + 2*math.Cos(a), 2 * math.Sin(a)}
			}
			postJSON(t, ts.URL, wire.StepRequest{Requests: reqs})
		}
	}()
	defer func() { <-posted }()

	var ev wire.RebalanceEvent
	br := bufio.NewReader(resp.Body)
	event, found := "", false
	for !found {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "rebalance":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if ev.V != wire.V1 || ev.From != 2 || ev.To != 3 {
		t.Fatalf("rebalance event = %+v, want v1 migration 2→3", ev)
	}
	if len(ev.Ks) != 4 || ev.Ks[2] != 1 || ev.Ks[3] != 3 {
		t.Fatalf("rebalance event layout = %v, want [2 2 1 3]", ev.Ks)
	}
	if len(ev.Server) != cfg.Dim {
		t.Fatalf("rebalance event server position has dim %d, want %d", len(ev.Server), cfg.Dim)
	}

	<-posted
	var st wire.StateResponse
	getJSON(t, ts.URL+"/state", &st)
	total := 0
	for _, sh := range st.Shards {
		total += sh.Servers
		if len(sh.Positions) != sh.Servers {
			t.Fatalf("shard %d reports %d servers, %d positions", sh.Shard, sh.Servers, len(sh.Positions))
		}
	}
	if total != 8 || st.Shards[3].Servers != 3 {
		t.Fatalf("/state layout = %+v, want 8 servers with 3 in shard 3", st.Shards)
	}
}
