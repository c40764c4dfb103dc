package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary frame encoding of the streaming transport.
//
// The stream handshake (hello/welcome) is always NDJSON; when the hello
// asks for Wire == WireBinary and the welcome confirms it, every frame
// after the welcome — in both directions — uses this encoding instead of
// one JSON object per line:
//
//	frame   := tag uvarint(len(payload)) payload
//	tag     := one byte, BinStep..BinPong
//	payload := the frame's fields in a fixed order (see the per-frame
//	           Append*/Decode* pairs below)
//
// Inside a payload:
//
//	uvarint  := unsigned LEB128 (encoding/binary.Uvarint)
//	varint   := zigzag LEB128 (encoding/binary.Varint); used for frame ids
//	float    := 8 bytes, little-endian IEEE-754 bits — exact float64
//	            round-trip, matching the engine's checkpoint guarantees
//	string   := uvarint(len) bytes
//	bool     := one byte, 0 or 1 (decoders reject other values)
//	cost     := move float, serve float, total float
//	points   := uvarint(count), then per point uvarint(dim) and dim floats
//
// Decoders are strict: counts are bounds-checked against the remaining
// payload before any allocation, booleans must be 0/1, and trailing bytes
// after a payload are an error — the binary decoders refuse garbage the
// same way UnmarshalStrict refuses unknown JSON fields. Decode* functions
// reuse the destination struct's slices (requests, positions, shards)
// so a steady-state step/ack loop decodes without allocating.

// Wire encodings negotiable in HelloFrame.Wire / WelcomeFrame.Wire.
const (
	// WireNDJSON is one JSON frame per line — the default, and the only
	// encoding peers that predate negotiation speak.
	WireNDJSON = "ndjson"
	// WireBinary is the length-prefixed binary encoding of this file.
	WireBinary = "binary"
)

// Binary frame tags, one per frame type that may follow the handshake.
// Tags 0x01, 0x02 and 0x05 are unassigned: the handshake (hello, welcome)
// is always NDJSON and no frame uses 0x05, so both peers reject them as
// unexpected frames.
const (
	BinStep  byte = 0x03
	BinAck   byte = 0x04
	BinError byte = 0x06
	BinBye   byte = 0x07
	BinPing  byte = 0x08
	BinPong  byte = 0x09
)

// DefaultMaxFrame is the payload bound the stream endpoints pass to
// ReadBinaryFrame, matching the NDJSON path's maximum line length.
const DefaultMaxFrame = 8 << 20

// WriteBinaryFrame writes one tag|length|payload frame. The caller owns
// flushing. The length is emitted through WriteByte rather than a local
// buffer: a stack array sliced into Write escapes through bufio's
// underlying io.Writer interface, and this function must stay
// allocation-free on the steady path.
func WriteBinaryFrame(w *bufio.Writer, tag byte, payload []byte) error {
	if err := w.WriteByte(tag); err != nil {
		return err
	}
	n := uint64(len(payload))
	for n >= 0x80 {
		if err := w.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := w.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadBinaryFrame reads one frame, growing *buf as needed and reusing it
// across calls; the returned payload aliases *buf and is valid until the
// next call. Payloads larger than max are refused without allocating.
// io.EOF is returned untouched when the stream ends cleanly between
// frames.
func ReadBinaryFrame(br *bufio.Reader, buf *[]byte, max int) (byte, []byte, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: bad binary frame length: %w", err)
	}
	if n > uint64(max) {
		return 0, nil, fmt.Errorf("wire: binary frame of %d bytes exceeds limit %d", n, max)
	}
	if uint64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: short binary frame: %w", err)
	}
	return tag, payload, nil
}

// --- payload building blocks (encode) ---

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendCost(dst []byte, c Cost) []byte {
	dst = appendFloat(dst, c.Move)
	dst = appendFloat(dst, c.Serve)
	return appendFloat(dst, c.Total)
}

// appendPoints encodes a point list; it is generic so both wire.Point
// lists (client side) and geom.Point lists (server side) encode without
// converting.
//
//moblint:hotpath
func appendPoints[P ~[]float64](dst []byte, pts []P) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		for _, c := range p {
			dst = appendFloat(dst, c)
		}
	}
	return dst
}

// --- payload building blocks (decode) ---

// binReader is a strict cursor over one frame payload.
type binReader struct {
	b []byte
}

func (r *binReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint in binary payload")
	}
	r.b = r.b[n:]
	return x, nil
}

func (r *binReader) varint() (int64, error) {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint in binary payload")
	}
	r.b = r.b[n:]
	return x, nil
}

// length-bounded non-negative int (counts, step indexes, millisecond
// backoffs).
func (r *binReader) count() (int, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x > math.MaxInt64/2 {
		return 0, fmt.Errorf("wire: binary count %d out of range", x)
	}
	return int(x), nil
}

func (r *binReader) float() (float64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("wire: truncated float in binary payload")
	}
	bits := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return math.Float64frombits(bits), nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) {
		return "", fmt.Errorf("wire: binary string of %d bytes exceeds payload", n)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *binReader) bool() (bool, error) {
	if len(r.b) < 1 {
		return false, fmt.Errorf("wire: truncated bool in binary payload")
	}
	v := r.b[0]
	r.b = r.b[1:]
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("wire: bad bool byte 0x%02x in binary payload", v)
}

func (r *binReader) cost() (Cost, error) {
	var c Cost
	var err error
	if c.Move, err = r.float(); err != nil {
		return c, err
	}
	if c.Serve, err = r.float(); err != nil {
		return c, err
	}
	c.Total, err = r.float()
	return c, err
}

// points decodes a point list into reuse, growing it as needed and reusing
// each point's coordinate storage; the count and every dimension are
// bounds-checked against the remaining payload before any allocation.
func (r *binReader) points(reuse []Point) ([]Point, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every encoded point takes at least one byte (its dim uvarint), so a
	// count beyond the remaining payload is garbage, not a big allocation.
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("wire: binary point count %d exceeds payload", n)
	}
	if uint64(cap(reuse)) < n {
		grown := make([]Point, n)
		copy(grown, reuse[:cap(reuse)])
		reuse = grown
	}
	reuse = reuse[:n]
	for i := range reuse {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if d > uint64(len(r.b))/8 {
			return nil, fmt.Errorf("wire: binary point dim %d exceeds payload", d)
		}
		p := reuse[i]
		if uint64(cap(p)) < d {
			p = make(Point, d)
		}
		p = p[:d]
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*j:]))
		}
		r.b = r.b[8*d:]
		reuse[i] = p
	}
	return reuse, nil
}

// done rejects trailing bytes, the binary analogue of UnmarshalStrict's
// trailing-data check.
func (r *binReader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after binary payload", len(r.b))
	}
	return nil
}

// --- per-frame payloads ---

// AppendStep appends the step payload: v, id, requests.
func AppendStep(dst []byte, f *StepFrame) []byte {
	return AppendStepFrom(dst, f.V, f.ID, f.Requests)
}

// AppendStepFrom appends a step payload from raw parts, generic over the
// point representation so callers holding geometry points encode without
// converting.
//
//moblint:hotpath
func AppendStepFrom[P ~[]float64](dst []byte, v int, id int64, requests []P) []byte {
	dst = binary.AppendUvarint(dst, uint64(v))
	dst = binary.AppendVarint(dst, id)
	return appendPoints(dst, requests)
}

// DecodeStep decodes a step payload, reusing f.Requests and its per-point
// storage.
func DecodeStep(payload []byte, f *StepFrame) error {
	r := binReader{payload}
	var err error
	if f.V, err = r.count(); err != nil {
		return err
	}
	f.Type = FrameStep
	if f.ID, err = r.varint(); err != nil {
		return err
	}
	if f.Requests, err = r.points(f.Requests); err != nil {
		return err
	}
	return r.done()
}

// AppendAck appends the ack payload: v, id, t, accepted, batched, cost,
// clamped, positions, shards.
func AppendAck(dst []byte, f *AckFrame) []byte {
	return AppendAckFrom(dst, f.V, f.ID, f.T, f.Accepted, f.Batched, f.Cost, f.Clamped, f.Positions, f.Shards)
}

// AppendAckFrom appends an ack payload from raw parts, generic over the
// point representation; the server's writer encodes straight from the
// protocol layer's geometry positions with no intermediate wire structs.
//
//moblint:hotpath
func AppendAckFrom[P ~[]float64](dst []byte, v int, id int64, t, accepted, batched int, cost Cost, clamped int, positions []P, shards []ShardStep) []byte {
	dst = binary.AppendUvarint(dst, uint64(v))
	dst = binary.AppendVarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(t))
	dst = binary.AppendUvarint(dst, uint64(accepted))
	dst = binary.AppendUvarint(dst, uint64(batched))
	dst = appendCost(dst, cost)
	dst = binary.AppendUvarint(dst, uint64(clamped))
	dst = appendPoints(dst, positions)
	dst = binary.AppendUvarint(dst, uint64(len(shards)))
	for _, sh := range shards {
		dst = binary.AppendUvarint(dst, uint64(sh.Shard))
		dst = binary.AppendUvarint(dst, uint64(sh.Routed))
		dst = appendCost(dst, sh.Cost)
	}
	return dst
}

// BinaryAckID peeks the frame id of an encoded ack payload without
// decoding the rest, so a client can pick the waiting frame's own reusable
// AckFrame as the decode target before calling DecodeAck.
//
//moblint:hotpath
func BinaryAckID(payload []byte) (int64, error) {
	r := binReader{payload}
	if _, err := r.uvarint(); err != nil { // v
		return 0, err
	}
	return r.varint()
}

// DecodeAck decodes an ack payload, reusing f.Positions (and its per-point
// storage) and f.Shards so a pipelining client's steady-state loop decodes
// acks without allocating.
func DecodeAck(payload []byte, f *AckFrame) error {
	r := binReader{payload}
	var err error
	if f.V, err = r.count(); err != nil {
		return err
	}
	f.Type = FrameAck
	if f.ID, err = r.varint(); err != nil {
		return err
	}
	if f.T, err = r.count(); err != nil {
		return err
	}
	if f.Accepted, err = r.count(); err != nil {
		return err
	}
	if f.Batched, err = r.count(); err != nil {
		return err
	}
	if f.Cost, err = r.cost(); err != nil {
		return err
	}
	if f.Clamped, err = r.count(); err != nil {
		return err
	}
	if f.Positions, err = r.points(f.Positions); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each encoded shard takes at least 26 bytes (two uvarints + a cost).
	if n > uint64(len(r.b))/26 {
		return fmt.Errorf("wire: binary shard count %d exceeds payload", n)
	}
	shards := f.Shards
	if uint64(cap(shards)) < n {
		shards = make([]ShardStep, n)
	}
	shards = shards[:n]
	for i := range shards {
		if shards[i].Shard, err = r.count(); err != nil {
			return err
		}
		if shards[i].Routed, err = r.count(); err != nil {
			return err
		}
		if shards[i].Cost, err = r.cost(); err != nil {
			return err
		}
	}
	if n == 0 {
		shards = nil
	}
	f.Shards = shards
	return r.done()
}

// AppendErrorFrame appends the error payload: v, the optional answered id,
// and the typed error (code, detail, retry_after_ms, optional executed_t).
func AppendErrorFrame(dst []byte, f *ErrorFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.V))
	dst = appendBool(dst, f.ID != nil)
	if f.ID != nil {
		dst = binary.AppendVarint(dst, *f.ID)
	}
	dst = appendString(dst, f.Err.Code)
	dst = appendString(dst, f.Err.Detail)
	dst = binary.AppendUvarint(dst, uint64(f.Err.RetryAfterMS))
	dst = appendBool(dst, f.Err.ExecutedT != nil)
	if f.Err.ExecutedT != nil {
		dst = binary.AppendUvarint(dst, uint64(*f.Err.ExecutedT))
	}
	return dst
}

// DecodeErrorFrame decodes an error payload.
func DecodeErrorFrame(payload []byte, f *ErrorFrame) error {
	r := binReader{payload}
	var err error
	if f.V, err = r.count(); err != nil {
		return err
	}
	f.Type = FrameError
	hasID, err := r.bool()
	if err != nil {
		return err
	}
	f.ID = nil
	if hasID {
		id, err := r.varint()
		if err != nil {
			return err
		}
		f.ID = &id
	}
	f.Err = Error{}
	if f.Err.Code, err = r.str(); err != nil {
		return err
	}
	if f.Err.Detail, err = r.str(); err != nil {
		return err
	}
	if f.Err.RetryAfterMS, err = r.count(); err != nil {
		return err
	}
	hasT, err := r.bool()
	if err != nil {
		return err
	}
	if hasT {
		t, err := r.count()
		if err != nil {
			return err
		}
		f.Err.ExecutedT = &t
	}
	return r.done()
}

// AppendControl appends the payload shared by bye/ping/pong: just v.
//
//moblint:hotpath
func AppendControl(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

// DecodeControl decodes a bye/ping/pong payload, returning the version.
func DecodeControl(payload []byte) (int, error) {
	r := binReader{payload}
	v, err := r.count()
	if err != nil {
		return 0, err
	}
	return v, r.done()
}
