// The persistent streaming transport: POST /stream hijacks the HTTP
// connection and speaks pipelined frames (package wire's frame grammar) in
// both directions, so one client can pipeline step batches without
// per-request HTTP overhead.
//
// Protocol, from the client's side:
//
//  1. POST /stream, then read the HTTP response head (200 with
//     Content-Type application/x-ndjson); the connection is now a frame
//     stream.
//  2. Send {"v":1,"type":"hello"} (optionally with "dim", and optionally
//     with "wire":"binary" to ask for the length-prefixed binary frame
//     encoding); the server answers a welcome frame carrying the
//     algorithm, the session's current step count t, the dimension, and —
//     when it grants the request — the confirmed "wire" encoding. The
//     handshake itself is always NDJSON; servers that predate the "wire"
//     field reject the hello strictly (bad_frame), which a client treats
//     as "speak NDJSON" by re-dialing a plain hello.
//  3. Pipeline step frames without waiting (NDJSON objects or binary
//     frames, per the negotiated encoding). The server enqueues them in
//     arrival order and answers every frame IN SUBMISSION ORDER with an
//     ack (the step outcome) or an error frame carrying that id. A full
//     queue is never answered: the server stops reading the connection
//     until a slot frees, so the client feels TCP backpressure and every
//     frame runs in the order it was sent.
//  4. Send a bye frame (or just close) to end; the server finishes
//     answering everything already submitted first.
//
// After a disconnect, steps whose acks were in flight may have executed:
// reconnect and compare the welcome's t with the last acked step — every
// step below t was executed exactly once, and the welcome's ring carries
// the exact outcomes of the newest of them — so recover those acks from
// the ring and resume from the first unexecuted batch.
//
// Ingestion is an explicit producer/decoder/consumer pipeline. The reader
// goroutine produces and decodes frames into pooled request buffers and
// enqueues them on the service (waiting while its queue is full); the
// ordered reply queue carries each buffer to the writer goroutine, which
// consumes the step outcome, emits the ack, and recycles the buffers.
// Ownership contract: a decoded request buffer belongs to the service
// from Enqueue until the step's outcome is delivered (the engine and its
// observers must not retain it past the Step call), then returns to the
// pool; a pooled ack position buffer belongs to the writer until
// Ack.Release. On the binary encoding the whole steady-state loop —
// socket to engine.Session.Step to ack bytes — runs at 0 allocs/op.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// replyItem is one queued response frame, carried from the reader to the
// writer so replies leave in exactly the order their frames arrived.
// Either pend is set (an enqueued step awaiting its outcome, with the
// pooled request buffer to recycle once it resolves) or frame holds an
// immediate reply (pong or per-message error).
type replyItem struct {
	pend  *protocol.Pending
	id    int64
	buf   *stepBuf
	frame any
}

// stepBuf is a pooled decoded step frame: the wire frame (whose Requests
// storage is reused across frames) plus the geometry-typed view of the
// same coordinate storage that the service consumes. It stays out of the
// pool from decode until the step's reply has been written.
type stepBuf struct {
	frame wire.StepFrame
	reqs  []geom.Point
}

var stepBufPool = sync.Pool{New: func() any { return new(stepBuf) }}

// geomView rebuilds b.reqs as the geometry view of b.frame.Requests
// (header copies only; both types are []float64).
func (b *stepBuf) geomView() []geom.Point {
	if cap(b.reqs) < len(b.frame.Requests) {
		b.reqs = make([]geom.Point, len(b.frame.Requests))
	}
	b.reqs = b.reqs[:len(b.frame.Requests)]
	for i, p := range b.frame.Requests {
		b.reqs[i] = geom.Point(p)
	}
	return b.reqs
}

// streamConn bundles the per-connection state of one hijacked stream.
type srvStream struct {
	srv     *Server
	br      *bufio.Reader
	bw      *bufio.Writer
	lineBuf []byte // NDJSON read buffer, reused across lines
	binBuf  []byte // binary frame read buffer, reused across frames
	binary  bool
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported: connection cannot be hijacked")
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	// The stream lives as long as the client keeps it; undo any server
	// read/write deadlines inherited from the HTTP layer.
	_ = conn.SetDeadline(time.Time{})

	if _, err := bufrw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}

	c := &srvStream{srv: s, br: bufrw.Reader, bw: bufrw.Writer}
	if !c.handshake() {
		return
	}

	// The writer drains replies in submission order; the reader keeps
	// consuming frames meanwhile, so the client can pipeline. The reader
	// stops reading while the service queue is full (Enqueue waits) or
	// while this bounded channel is full (the writer is behind on a slow
	// client): either way the client feels TCP backpressure, and memory
	// stays bounded.
	replies := make(chan replyItem, 2*protocol.DefaultQueueLimit)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop(replies)
	}()

	c.readLoop(replies)
	close(replies)
	<-writerDone
}

// writeJSONFrame marshals one NDJSON frame without flushing.
func (c *srvStream) writeJSONFrame(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(data); err != nil {
		return err
	}
	return c.bw.WriteByte('\n')
}

// writeHandshakeFrame writes one NDJSON frame and flushes (the handshake
// is request/response, not pipelined).
func (c *srvStream) writeHandshakeFrame(v any) error {
	if err := c.writeJSONFrame(v); err != nil {
		return err
	}
	return c.bw.Flush()
}

// handshake consumes the NDJSON hello frame, negotiates the frame
// encoding, and answers welcome (or a fatal error frame). It reports
// whether the stream may proceed; on success c.binary holds the
// negotiated encoding.
func (c *srvStream) handshake() bool {
	s := c.srv
	line, ok := c.nextLine()
	if !ok {
		return false
	}
	head, err := wire.PeekFrame(line)
	if err != nil {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadFrame, err.Error()))
		return false
	}
	if err := wire.CheckVersion(head.V); err != nil {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadVersion, err.Error()))
		return false
	}
	if head.Type != wire.FrameHello {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadFrame, "first frame must be hello, got "+head.Type))
		return false
	}
	var hello wire.HelloFrame
	if err := wire.UnmarshalStrict(line, &hello); err != nil {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadFrame, "bad hello: "+err.Error()))
		return false
	}
	if hello.Dim != 0 && hello.Dim != s.cfg.Dim {
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadRequest,
			"session dimension is "+strconv.Itoa(s.cfg.Dim)+", hello asked for "+strconv.Itoa(hello.Dim)))
		return false
	}
	switch hello.Wire {
	case "", wire.WireNDJSON:
		// The default encoding; nothing to confirm.
	case wire.WireBinary:
		// Grant binary unless this server is pinned to NDJSON; an
		// unconfirmed request simply stays on NDJSON (the client reads
		// the welcome's wire field, not its own preference).
		c.binary = s.streamWire() != wire.WireNDJSON
	default:
		_ = c.writeHandshakeFrame(fatalError(wire.CodeBadRequest, "unknown wire encoding "+strconv.Quote(hello.Wire)))
		return false
	}
	welcome := wire.WelcomeFrame{
		V:         wire.V1,
		Type:      wire.FrameWelcome,
		Algorithm: s.svc.Algorithm(),
		T:         s.svc.T(),
		Dim:       s.cfg.Dim,
	}
	if c.binary {
		welcome.Wire = wire.WireBinary
	}
	// Grant a pipelined window capped at what the service can actually
	// reconcile (its ack-ring depth, 1 in lockstep).
	if hello.Window > 1 {
		if grant := min(hello.Window, s.svc.MaxWindow()); grant > 1 {
			welcome.Window = grant
		}
	}
	// Re-serve the ack ring, so a reconnecting client whose acks were lost
	// in flight recovers every executed step instead of resending its
	// batch (which would double-feed the session).
	for _, ls := range s.svc.RecentSteps() {
		welcome.Ring = append(welcome.Ring, wire.LastStep{
			T:         ls.T,
			Batched:   ls.Batched,
			Cost:      wire.FromCost(ls.Cost),
			Clamped:   ls.Clamped,
			Positions: wire.FromPoints(ls.Positions),
		})
	}
	return c.writeHandshakeFrame(welcome) == nil
}

// readLoop is the producer/decoder stage: it reads frames in the
// negotiated encoding, decodes each step into a pooled request buffer,
// and turns every frame into an ordered reply item — an enqueued pending
// step, a pong, or an error. Enqueue waits while the service queue is
// full, so a backlog pauses the reader instead of refusing or reordering
// frames. It returns on bye, on a fatal protocol violation, when the
// service shuts down (a ping after Close is answered with a connection-level
// shutting_down error, so a heartbeating client learns it is done), or when
// the connection dies.
func (c *srvStream) readLoop(replies chan<- replyItem) {
	for {
		buf := stepBufPool.Get().(*stepBuf)
		id, kind, fatal := c.readStep(buf)
		switch kind {
		case readEOF:
			stepBufPool.Put(buf)
			return
		case readBadFrame:
			stepBufPool.Put(buf)
			replies <- replyItem{frame: fatal}
			return
		case readPing:
			stepBufPool.Put(buf)
			if c.srv.svc.Closing() {
				replies <- replyItem{frame: fatalError(wire.CodeShuttingDown, protocol.ErrShuttingDown.Error())}
				return
			}
			// The pong rides the ordered reply queue behind any pending
			// acks, so receiving it proves the whole pipeline — reader,
			// step loop, writer — is alive, not just the TCP connection.
			replies <- replyItem{frame: wire.PongFrame{V: wire.V1, Type: wire.FramePong}}
			continue
		case readBye:
			stepBufPool.Put(buf)
			return
		}
		if err := wire.ValidatePoints(buf.frame.Requests, c.srv.cfg.Dim); err != nil {
			// Payload-level rejection answers just this frame; the stream
			// continues.
			stepBufPool.Put(buf)
			replies <- replyItem{frame: idError(id, wire.CodeBadRequest, err.Error())}
			continue
		}
		pend, err := c.srv.svc.Enqueue(buf.geomView())
		if err != nil {
			// Enqueue fails only once the service is shutting down.
			stepBufPool.Put(buf)
			replies <- replyItem{frame: streamError(id, err)}
			return
		}
		replies <- replyItem{pend: pend, id: id, buf: buf}
	}
}

// readStep outcomes.
type readKind int

const (
	readStepFrame readKind = iota
	readPing
	readBye
	readEOF
	readBadFrame
)

// readStep reads one frame in the negotiated encoding. For a step frame
// it decodes into buf and returns its id; for control frames it returns
// the kind; for protocol violations it returns the fatal error frame to
// send before closing.
func (c *srvStream) readStep(buf *stepBuf) (int64, readKind, any) {
	if c.binary {
		tag, payload, err := wire.ReadBinaryFrame(c.br, &c.binBuf, maxBodyBytes)
		if err != nil {
			return 0, readEOF, nil
		}
		switch tag {
		case wire.BinStep:
			if err := wire.DecodeStep(payload, &buf.frame); err != nil {
				return 0, readBadFrame, fatalError(wire.CodeBadFrame, "bad step frame: "+err.Error())
			}
			if err := wire.CheckVersion(buf.frame.V); err != nil {
				return 0, readBadFrame, fatalError(wire.CodeBadVersion, err.Error())
			}
			return buf.frame.ID, readStepFrame, nil
		case wire.BinPing:
			if _, err := wire.DecodeControl(payload); err != nil {
				return 0, readBadFrame, fatalError(wire.CodeBadFrame, "bad ping frame: "+err.Error())
			}
			return 0, readPing, nil
		case wire.BinBye:
			return 0, readBye, nil
		default:
			return 0, readBadFrame, fatalError(wire.CodeBadFrame, "unexpected binary frame 0x"+strconv.FormatUint(uint64(tag), 16))
		}
	}

	line, ok := c.nextLine()
	if !ok {
		return 0, readEOF, nil
	}
	head, err := wire.PeekFrame(line)
	if err != nil {
		return 0, readBadFrame, fatalError(wire.CodeBadFrame, err.Error())
	}
	if err := wire.CheckVersion(head.V); err != nil {
		return 0, readBadFrame, fatalError(wire.CodeBadVersion, err.Error())
	}
	switch head.Type {
	case wire.FrameStep:
		buf.frame = wire.StepFrame{}
		if err := wire.UnmarshalStrict(line, &buf.frame); err != nil {
			return 0, readBadFrame, fatalError(wire.CodeBadFrame, "bad step frame: "+err.Error())
		}
		return buf.frame.ID, readStepFrame, nil
	case wire.FramePing:
		return 0, readPing, nil
	case wire.FrameBye:
		return 0, readBye, nil
	default:
		return 0, readBadFrame, fatalError(wire.CodeBadFrame, "unexpected frame type "+head.Type)
	}
}

// writeLoop is the consumer stage: it resolves each reply item in order,
// emits the reply in the negotiated encoding, and recycles the request
// and ack buffers. Flushes are coalesced: the buffered writer only
// flushes when the reply queue is momentarily empty, so a pipelining
// client amortizes syscalls across its in-flight window.
func (c *srvStream) writeLoop(replies chan replyItem) {
	var payload []byte            // binary ack scratch, reused per frame
	var shardBuf []wire.ShardStep // shard conversion scratch, reused
	dead := false
	for it := range replies {
		if it.pend != nil {
			ack, err := it.pend.Wait()
			if !dead {
				if werr := c.writeAck(it.id, ack, err, &payload, &shardBuf); werr != nil {
					dead = true
				}
			}
			ack.Release()
			it.pend.Release()
			if it.buf != nil {
				stepBufPool.Put(it.buf)
			}
		} else if !dead {
			// After a write failure keep draining so enqueued steps are
			// still waited (their outcomes are buffered; nothing leaks),
			// but stop touching the dead connection.
			if c.writeControl(it.frame, &payload) != nil {
				dead = true
			}
		}
		if !dead && len(replies) == 0 {
			if c.bw.Flush() != nil {
				dead = true
			}
		}
	}
	if !dead {
		_ = c.bw.Flush()
	}
}

// writeAck emits one step outcome (ack or typed error) in the negotiated
// encoding. On the binary path the ack is encoded straight from the
// protocol layer's typed outcome into the reusable payload buffer — no
// intermediate wire structs, no JSON.
func (c *srvStream) writeAck(id int64, ack protocol.Ack, err error, payload *[]byte, shardBuf *[]wire.ShardStep) error {
	if err != nil {
		return c.writeControl(streamError(id, err), payload)
	}
	if !c.binary {
		return c.writeJSONFrame(wire.AckFrame{V: wire.V1, Type: wire.FrameAck, ID: id, StepResponse: ackResponse(ack)})
	}
	shards := (*shardBuf)[:0]
	for i, st := range ack.Shards {
		shards = append(shards, wire.ShardStep{Shard: i, Routed: st.Routed, Cost: wire.FromCost(st.Cost)})
	}
	*shardBuf = shards
	p := wire.AppendAckFrom((*payload)[:0], wire.V1, id, ack.T, ack.Accepted, ack.Batched,
		wire.FromCost(ack.Cost), ack.Clamped, ack.Positions, shards)
	*payload = p
	return wire.WriteBinaryFrame(c.bw, wire.BinAck, p)
}

// writeControl emits a non-ack reply frame (pong, error) in the
// negotiated encoding.
func (c *srvStream) writeControl(frame any, payload *[]byte) error {
	if !c.binary {
		return c.writeJSONFrame(frame)
	}
	p := (*payload)[:0]
	var tag byte
	switch f := frame.(type) {
	case wire.PongFrame:
		tag = wire.BinPong
		p = wire.AppendControl(p, f.V)
	case wire.ErrorFrame:
		tag = wire.BinError
		p = wire.AppendErrorFrame(p, &f)
	default:
		return errors.New("server: unencodable stream frame")
	}
	*payload = p
	return wire.WriteBinaryFrame(c.bw, tag, p)
}

// nextLine returns the next non-empty NDJSON line, reusing the
// connection's line buffer; false when the stream ended (EOF, connection
// error, or an over-long line).
func (c *srvStream) nextLine() ([]byte, bool) {
	for {
		line, err := readLine(c.br, &c.lineBuf, maxBodyBytes)
		if err != nil {
			return nil, false
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			return line, true
		}
	}
}

// readLine reads one newline-terminated line from br, reusing *buf across
// calls and refusing lines longer than max. The returned slice aliases
// *buf (or the reader's internal buffer) and is valid until the next call.
func readLine(br *bufio.Reader, buf *[]byte, max int) ([]byte, error) {
	chunk, err := br.ReadSlice('\n')
	if err == nil {
		if len(chunk) > max {
			return nil, errors.New("server: stream line exceeds limit")
		}
		return chunk, nil // common case: whole line inside the reader buffer
	}
	if err == io.EOF && len(chunk) > 0 {
		return chunk, nil // final unterminated line
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	line := append((*buf)[:0], chunk...)
	for err == bufio.ErrBufferFull {
		chunk, err = br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > max {
			*buf = line[:0]
			return nil, errors.New("server: stream line exceeds limit")
		}
	}
	*buf = line
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(line) == 0 {
		return nil, io.EOF
	}
	return line, nil
}

// streamError maps a protocol-layer error for one step frame to its typed
// wire form.
func streamError(id int64, err error) wire.ErrorFrame {
	e := wire.Error{Code: wire.CodeInternal, Detail: err.Error()}
	var de *protocol.DurabilityError
	var ue *protocol.UnreachableError
	switch {
	case errors.As(err, &de):
		t := de.ExecutedT
		e = wire.Error{Code: wire.CodeNotDurable, Detail: err.Error(), ExecutedT: &t}
	case errors.As(err, &ue):
		e = wire.Error{Code: wire.CodeUnreachable, Detail: err.Error()}
	case errors.Is(err, protocol.ErrShuttingDown):
		e = wire.Error{Code: wire.CodeShuttingDown, Detail: err.Error()}
	}
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, ID: &id, Err: e}
}

// idError is a per-frame rejection: the identified frame failed, the
// stream continues.
func idError(id int64, code, detail string) wire.ErrorFrame {
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, ID: &id, Err: wire.Error{Code: code, Detail: detail}}
}

// fatalError is a connection-level error frame: no id, and the server
// closes the stream after writing it.
func fatalError(code, detail string) wire.ErrorFrame {
	return wire.ErrorFrame{V: wire.V1, Type: wire.FrameError, Err: wire.Error{Code: code, Detail: detail}}
}
