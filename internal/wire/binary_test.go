package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// ptr is a test shorthand for optional scalar fields.
func ptr[T any](v T) *T { return &v }

// binFrames enumerates one representative of every frame type of the
// binary grammar, with every optional field populated (nil-able slices
// are either nil or non-empty, so reflect.DeepEqual comparisons against
// JSON round-trips cannot be confused by nil-vs-empty).
func binFrames() []struct {
	name   string
	tag    byte
	value  any
	encode func(dst []byte) []byte
	decode func(payload []byte) (any, error)
} {
	hello := HelloFrame{V: V1, Type: FrameHello, Dim: 3, Wire: WireBinary}
	welcome := WelcomeFrame{
		V: V1, Type: FrameWelcome, Algorithm: "MtC", T: 41, Dim: 2, Wire: WireBinary,
		Last: &LastStep{
			T: 40, Batched: 3, Cost: Cost{Move: 1.25, Serve: math.Pi, Total: 1.25 + math.Pi},
			Clamped: 1, Positions: []Point{{0.5, -2}, {1e-300, 7}},
		},
	}
	step := StepFrame{V: V1, Type: FrameStep, ID: 7, Requests: []Point{{3, 4}, {5, 6}, {-0.0, math.MaxFloat64}}}
	ack := AckFrame{
		V: V1, Type: FrameAck, ID: -9, StepResponse: StepResponse{
			T: 12, Accepted: 5, Batched: 8,
			Cost:      Cost{Move: 0.125, Serve: 2.5, Total: 2.625},
			Positions: []Point{{1, 2}, {3.5, -4.25}},
			Clamped:   2,
			Shards:    []ShardStep{{Shard: 0, Routed: 3, Cost: Cost{Move: 1, Serve: 2, Total: 3}}, {Shard: 1, Routed: 5}},
		},
	}
	errFrame := ErrorFrame{V: V1, Type: FrameError, ID: ptr(int64(11)), Err: Error{
		Code: CodeNotDurable, Detail: "disk full", RetryAfterMS: 50, ExecutedT: ptr(9),
	}}
	bye := ByeFrame{V: V1, Type: FrameBye}
	ping := PingFrame{V: V1, Type: FramePing}
	pong := PongFrame{V: V1, Type: FramePong}

	return []struct {
		name   string
		tag    byte
		value  any
		encode func(dst []byte) []byte
		decode func(payload []byte) (any, error)
	}{
		{"hello", BinHello, hello,
			func(dst []byte) []byte { f := hello; return AppendHello(dst, &f) },
			func(p []byte) (any, error) { var f HelloFrame; err := DecodeHello(p, &f); return f, err }},
		{"welcome", BinWelcome, welcome,
			func(dst []byte) []byte { f := welcome; return AppendWelcome(dst, &f) },
			func(p []byte) (any, error) { var f WelcomeFrame; err := DecodeWelcome(p, &f); return f, err }},
		{"step", BinStep, step,
			func(dst []byte) []byte { f := step; return AppendStep(dst, &f) },
			func(p []byte) (any, error) { var f StepFrame; err := DecodeStep(p, &f); return f, err }},
		{"ack", BinAck, ack,
			func(dst []byte) []byte { f := ack; return AppendAck(dst, &f) },
			func(p []byte) (any, error) { var f AckFrame; err := DecodeAck(p, &f); return f, err }},
		{"error", BinError, errFrame,
			func(dst []byte) []byte { f := errFrame; return AppendErrorFrame(dst, &f) },
			func(p []byte) (any, error) { var f ErrorFrame; err := DecodeErrorFrame(p, &f); return f, err }},
		{"bye", BinBye, bye,
			func(dst []byte) []byte { return AppendControl(dst, V1) },
			func(p []byte) (any, error) {
				v, err := DecodeControl(p)
				return ByeFrame{V: v, Type: FrameBye}, err
			}},
		{"ping", BinPing, ping,
			func(dst []byte) []byte { return AppendControl(dst, V1) },
			func(p []byte) (any, error) {
				v, err := DecodeControl(p)
				return PingFrame{V: v, Type: FramePing}, err
			}},
		{"pong", BinPong, pong,
			func(dst []byte) []byte { return AppendControl(dst, V1) },
			func(p []byte) (any, error) {
				v, err := DecodeControl(p)
				return PongFrame{V: v, Type: FramePong}, err
			}},
	}
}

// TestBinaryRoundTripAllFrames pins the binary grammar value-for-value:
// every frame type encodes and decodes back to a deeply equal value.
func TestBinaryRoundTripAllFrames(t *testing.T) {
	for _, tc := range binFrames() {
		payload := tc.encode(nil)
		got, err := tc.decode(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.value) {
			t.Fatalf("%s round trip:\n got  %#v\n want %#v", tc.name, got, tc.value)
		}
	}
}

// TestBinaryMatchesJSONDecode is the differential property the transport
// equivalence rests on: for every frame type, decoding the binary payload
// yields a value deeply equal to strict-decoding the same frame's NDJSON
// form — same fields, same float64 bits, same nil-ness. A server fed by
// either encoding therefore feeds identical values into the engine.
func TestBinaryMatchesJSONDecode(t *testing.T) {
	for _, tc := range binFrames() {
		line := mustJSON(t, tc.value)
		jsonDecoded := reflect.New(reflect.TypeOf(tc.value))
		if err := UnmarshalStrict(line, jsonDecoded.Interface()); err != nil {
			t.Fatalf("%s: strict JSON decode: %v", tc.name, err)
		}
		binDecoded, err := tc.decode(tc.encode(nil))
		if err != nil {
			t.Fatalf("%s: binary decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(jsonDecoded.Elem().Interface(), binDecoded) {
			t.Fatalf("%s: binary and NDJSON decodes disagree:\n json   %#v\n binary %#v",
				tc.name, jsonDecoded.Elem().Interface(), binDecoded)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBinaryExactFloatBits pins bit-exactness through the binary encoding
// for values JSON would also round-trip exactly — including negative
// zero, denormals, and max-float.
func TestBinaryExactFloatBits(t *testing.T) {
	pts := []Point{{math.Copysign(0, -1), 5e-324}, {math.MaxFloat64, -math.MaxFloat64}}
	payload := AppendStepFrom(nil, V1, 1, pts)
	var f StepFrame
	if err := DecodeStep(payload, &f); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		for k := range pts[i] {
			if math.Float64bits(f.Requests[i][k]) != math.Float64bits(pts[i][k]) {
				t.Fatalf("request[%d][%d]: bits %x != %x", i, k,
					math.Float64bits(f.Requests[i][k]), math.Float64bits(pts[i][k]))
			}
		}
	}
}

// TestBinaryDecodeReusesStorage pins the zero-copy contract DecodeAck and
// DecodeStep document: decoding into a frame that already holds
// sufficient capacity reuses the positions slice and the per-point
// storage instead of allocating.
func TestBinaryDecodeReusesStorage(t *testing.T) {
	big := AppendAckFrom(nil, V1, 1, 1, 2, 2, Cost{}, 0, []Point{{1, 2}, {3, 4}, {5, 6}}, nil)
	small := AppendAckFrom(nil, V1, 2, 2, 1, 1, Cost{}, 0, []Point{{9, 9}}, nil)
	var f AckFrame
	if err := DecodeAck(big, &f); err != nil {
		t.Fatal(err)
	}
	firstPoint := &f.Positions[0][0]
	if err := DecodeAck(small, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Positions) != 1 || f.Positions[0][0] != 9 {
		t.Fatalf("reused decode wrong: %+v", f.Positions)
	}
	if &f.Positions[0][0] != firstPoint {
		t.Fatal("decode into sufficient capacity reallocated point storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeAck(big, &f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeAck allocates %v/op, want 0", allocs)
	}
}

// TestBinaryFrameIO pins the framing layer: frames written through
// WriteBinaryFrame stream back through ReadBinaryFrame in order; clean
// EOF surfaces as io.EOF; a truncated frame is an unexpected EOF; a frame
// over the limit is refused without allocating its payload.
func TestBinaryFrameIO(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	payloads := [][]byte{AppendControl(nil, V1), AppendStepFrom(nil, V1, 5, []Point{{1, 2}})}
	tags := []byte{BinPing, BinStep}
	for i := range payloads {
		if err := WriteBinaryFrame(bw, tags[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	var scratch []byte
	for i := range payloads {
		tag, payload, err := ReadBinaryFrame(br, &scratch, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != tags[i] || !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("frame %d: tag 0x%x payload %x", i, tag, payload)
		}
	}
	if _, _, err := ReadBinaryFrame(br, &scratch, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// Truncated payload: the head promises more bytes than the stream has.
	trunc := bufio.NewReader(bytes.NewReader([]byte{BinStep, 10, 1, 2}))
	if _, _, err := ReadBinaryFrame(trunc, &scratch, DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}

	// Oversize frame: refused from the head alone.
	var over bytes.Buffer
	obw := bufio.NewWriter(&over)
	if err := WriteBinaryFrame(obw, BinStep, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_ = obw.Flush()
	if _, _, err := ReadBinaryFrame(bufio.NewReader(&over), &scratch, 16); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestBinaryRejectsTrailingBytes pins decoder strictness (the binary
// mirror of UnmarshalStrict's trailing-garbage rule): every per-frame
// decoder refuses a payload with bytes left over.
func TestBinaryRejectsTrailingBytes(t *testing.T) {
	for _, tc := range binFrames() {
		payload := append(tc.encode(nil), 0x00)
		if _, err := tc.decode(payload); err == nil {
			t.Fatalf("%s: decoder accepted a trailing byte", tc.name)
		}
	}
}

// TestBinaryRejectsTruncatedPayloads walks every prefix of every encoded
// frame through its decoder: all must error, none may panic.
func TestBinaryRejectsTruncatedPayloads(t *testing.T) {
	for _, tc := range binFrames() {
		payload := tc.encode(nil)
		for n := 0; n < len(payload); n++ {
			if _, err := tc.decode(payload[:n]); err == nil {
				t.Fatalf("%s: accepted truncation to %d of %d bytes", tc.name, n, len(payload))
			}
		}
	}
}

// TestBinaryAckID pins the id peek against the full decode.
func TestBinaryAckID(t *testing.T) {
	for _, id := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		payload := AppendAckFrom(nil, V1, id, 0, 0, 0, Cost{}, 0, []Point(nil), nil)
		got, err := BinaryAckID(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("BinaryAckID = %d, want %d", got, id)
		}
	}
	if _, err := BinaryAckID(nil); err == nil {
		t.Fatal("BinaryAckID accepted an empty payload")
	}
}

// TestBinaryPointBombRejected pins the allocation bound: a payload whose
// counts promise far more data than its bytes carry is refused before any
// large allocation, not trusted.
func TestBinaryPointBombRejected(t *testing.T) {
	// Claim 2^40 points in a 12-byte payload.
	bomb := []byte{V1, 14 /* id */, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	var f StepFrame
	if err := DecodeStep(bomb, &f); err == nil {
		t.Fatal("point-count bomb accepted")
	}
	// Claim a 2^40 dimension for one point.
	bomb2 := []byte{V1, 14, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if err := DecodeStep(bomb2, &f); err == nil {
		t.Fatal("dimension bomb accepted")
	}
}
