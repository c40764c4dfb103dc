package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// This file is the adversarial half of the wire test layer: native Go
// fuzz targets for every decoder an untrusted peer can reach —
// UnmarshalStrict, the NDJSON frame path (PeekFrame + per-type strict
// decode), the binary frame path (ReadBinaryFrame + per-tag decode), and
// checkpoint parsing. The property under fuzz is uniform: no input may
// panic, and any input a decoder accepts must survive a value-level
// re-encode/decode round trip.
//
// fuzzSeeds below is the committed corpus, covering every frame type of
// both encodings. TestFuzzCorpusCommitted materializes it under
// testdata/fuzz/<Target>/ in the native corpus-file format, so plain
// `go test` (and CI's -fuzz=… -fuzztime=20s job) always starts from full
// grammar coverage rather than empty-input discovery.

// binFrame prepends the stream head (tag + uvarint length) that
// ReadBinaryFrame expects in front of an encoded payload.
func binFrame(tag byte, payload []byte) []byte {
	head := make([]byte, 1, 1+binary.MaxVarintLen64+len(payload))
	head[0] = tag
	head = binary.AppendUvarint(head, uint64(len(payload)))
	return append(head, payload...)
}

// fuzzSeeds maps each fuzz target to its committed seed corpus. Every
// frame type of the grammar appears in each encoding that carries it (the
// handshake is NDJSON only), plus the envelope and bare checkpoint
// documents, a handful of malformed shapes, and inputs that no decoder
// accepts any more but whose committed bytes stay: the retired throttle
// frame (type "throttle", tag 0x05), the binary hello and welcome (tags
// 0x01 and 0x02), the NDJSON welcome carrying the retired "last" field,
// and the pre-envelope "version" checkpoint stamp.
var fuzzSeeds = map[string][][]byte{
	"FuzzUnmarshalStrict": {
		[]byte(`{"v":1,"type":"hello","dim":2}`),
		[]byte(`{"v":1,"type":"hello","dim":2,"wire":"binary"}`),
		[]byte(`{"v":1,"type":"step","id":1,"requests":[[1,2],[3,4]]}`),
		[]byte(`{"v":1,"type":"ack","id":1,"t":3,"accepted":1,"batched":1,"cost":{"move":1,"serve":2,"total":3},"positions":[[0,0]]}`),
		[]byte(`{"v":1,"type":"hello","dim":2} trailing`),
		[]byte(`{"v":1,"type":"hello","unknown":true}`),
		[]byte(`{"v":1`),
		[]byte(`null`),
	},
	"FuzzNDJSONFrame": {
		[]byte(`{"v":1,"type":"hello","dim":3,"wire":"binary"}`),
		[]byte(`{"v":1,"type":"welcome","algorithm":"MtC","t":4,"dim":2,"wire":"binary","last":{"t":3,"batched":1,"cost":{"move":1,"serve":2,"total":3},"clamped":0,"positions":[[1,2]]}}`), // retired "last" field: refused
		[]byte(`{"v":1,"type":"step","id":7,"requests":[[3,4],[5,6]]}`),
		[]byte(`{"v":1,"type":"ack","id":7,"t":1,"accepted":2,"batched":2,"cost":{"move":0,"serve":1,"total":1},"positions":[[1,1]],"shards":[{"shard":0,"routed":2,"cost":{"move":0,"serve":1,"total":1}}]}`),
		[]byte(`{"v":1,"type":"throttle","id":9,"retry_after_ms":50}`), // retired type: no decoder
		[]byte(`{"v":1,"type":"error","id":4,"error":{"code":"not_durable","detail":"disk","executed_t":3}}`),
		[]byte(`{"v":1,"type":"ping"}`),
		[]byte(`{"v":1,"type":"pong"}`),
		[]byte(`{"v":1,"type":"bye"}`),
		[]byte(`{"v":2,"type":"ping"}`),
		[]byte(`{"type":"ping"}`),
		[]byte(`not json`),
		[]byte(`{"v":1,"type":"hello","dim":2,"wire":"binary","window":8}`),
		[]byte(`{"v":1,"type":"welcome","algorithm":"MtC","t":4,"dim":2,"window":8,"ring":[{"t":2,"batched":1,"cost":{"move":1,"serve":0,"total":1},"positions":[[0,1]]},{"t":3,"batched":2,"cost":{"move":0,"serve":2,"total":2},"positions":[[1,2]]}]}`),
	},
	"FuzzBinaryFrame": nil, // built in init: needs the Append helpers
	"FuzzParseCheckpoint": {
		[]byte(`{"v":1,"session":{"t":3,"positions":[[1,2]],"metrics":{"steps":3}}}`),
		[]byte(`{"version":1,"t":3,"positions":[[1,2]]}`), // pre-envelope stamp, no session: read as a bare snapshot
		[]byte(`{"t":3,"positions":[[1,2]],"moves":[{"t":1,"dist":0.5}]}`),
		[]byte(`{"v":99,"session":{}}`),
		[]byte(`{"v":1,"session":{"unknown":1}}`),
		[]byte(`{}`),
		[]byte(``),
		[]byte(`[1,2,3]`),
	},
}

func init() {
	ack := AppendAckFrom(nil, V1, 7, 1, 2, 2, Cost{Serve: 1, Total: 1}, 0,
		[]Point{{1, 1}}, []ShardStep{{Shard: 0, Routed: 2, Cost: Cost{Serve: 1, Total: 1}}})
	errID := int64(4)
	errf := &ErrorFrame{V: V1, Type: FrameError, ID: &errID, Err: Error{Code: CodeBadFrame, Detail: "x"}}
	fuzzSeeds["FuzzBinaryFrame"] = [][]byte{
		// Unassigned tags 0x01 and 0x02: a binary hello and welcome, from
		// before the handshake became NDJSON only.
		[]byte("\x01\n\x01\x02\x06binary\b"),
		[]byte("\x02\x98\x01\x01\x03MtC\x04\x02\x06binary\x01\x03\x01\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\b@\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\b\x02\x02\x02\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\xf8?\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0?\x03\x01\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\b@\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@"),
		binFrame(BinStep, AppendStepFrom(nil, V1, 7, []Point{{3, 4}, {5, 6}})),
		binFrame(BinAck, ack),
		{0x05, 3, 1, 18, 50}, // unassigned tag 0x05 (the retired throttle frame)
		binFrame(BinError, AppendErrorFrame(nil, errf)),
		binFrame(BinBye, AppendControl(nil, V1)),
		binFrame(BinPing, AppendControl(nil, V1)),
		binFrame(BinPong, AppendControl(nil, V1)),
		{BinStep, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // oversize head
		{BinStep, 10, 1, 2},                                                   // truncated payload
		{0x42, 2, 0, 0},                                                       // unknown tag
		binFrame(BinAck, nil),                                                 // empty payload
		{},                                                                    // empty stream
	}
}

// corpusDir is where the native fuzzing engine looks for the seed corpus
// of a target; files there also run as subtests under plain `go test`.
func corpusDir(target string) string {
	return filepath.Join("testdata", "fuzz", target)
}

// TestFuzzCorpusCommitted materializes fuzzSeeds under testdata/fuzz/ in
// the `go test fuzz v1` corpus-file format, and fails if a committed file
// drifted from its seed. Running the test once (it writes missing files)
// and committing the result is how the corpus is maintained — seeds are
// defined in code, next to the grammar they cover.
func TestFuzzCorpusCommitted(t *testing.T) {
	for target, seeds := range fuzzSeeds {
		dir := corpusDir(target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			got, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s — commit it", path)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("%s drifted from its seed; delete it and re-run to regenerate", path)
			}
		}
	}
}

// FuzzUnmarshalStrict: the strict JSON decoder must never panic and must
// stay strict — anything it accepts re-marshals and strict-decodes to a
// deeply equal value.
func FuzzUnmarshalStrict(f *testing.F) {
	for _, seed := range fuzzSeeds["FuzzUnmarshalStrict"] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HelloFrame
		if err := UnmarshalStrict(data, &h); err == nil {
			re, err := json.Marshal(h)
			if err != nil {
				t.Fatalf("accepted input did not re-marshal: %v", err)
			}
			var h2 HelloFrame
			if err := UnmarshalStrict(re, &h2); err != nil {
				t.Fatalf("re-marshaled frame rejected: %v", err)
			}
			if !reflect.DeepEqual(h, h2) {
				t.Fatalf("round trip drifted: %+v vs %+v", h, h2)
			}
		}
		var s StepFrame
		_ = UnmarshalStrict(data, &s)
		var a AckFrame
		_ = UnmarshalStrict(data, &a)
	})
}

// FuzzNDJSONFrame drives a fuzzed line through the exact dispatch the
// stream servers use: PeekFrame for the type, then the per-type strict
// decode. No input may panic either stage.
func FuzzNDJSONFrame(f *testing.F) {
	for _, seed := range fuzzSeeds["FuzzNDJSONFrame"] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		head, err := PeekFrame(line)
		if err != nil {
			return
		}
		_ = CheckVersion(head.V)
		switch head.Type {
		case FrameHello:
			var v HelloFrame
			_ = UnmarshalStrict(line, &v)
		case FrameWelcome:
			var v WelcomeFrame
			_ = UnmarshalStrict(line, &v)
		case FrameStep:
			var v StepFrame
			_ = UnmarshalStrict(line, &v)
		case FrameAck:
			var v AckFrame
			_ = UnmarshalStrict(line, &v)
		case FrameError:
			var v ErrorFrame
			_ = UnmarshalStrict(line, &v)
		case FramePing, FramePong, FrameBye:
			var v PingFrame
			_ = UnmarshalStrict(line, &v)
		}
	})
}

// FuzzBinaryFrame drives fuzzed bytes through the framing layer and
// every per-tag decoder. No input may panic, and any frame a decoder
// accepts must survive a value-level re-encode/decode round trip (byte
// equality is deliberately not required: uvarints admit non-minimal
// encodings, values are the contract).
func FuzzBinaryFrame(f *testing.F) {
	for _, seed := range fuzzSeeds["FuzzBinaryFrame"] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			tag, payload, err := ReadBinaryFrame(br, &buf, DefaultMaxFrame)
			if err != nil {
				return
			}
			switch tag {
			case BinStep:
				var v StepFrame
				if DecodeStep(payload, &v) == nil {
					rt := AppendStep(nil, &v)
					var v2 StepFrame
					if err := DecodeStep(rt, &v2); err != nil || !reflect.DeepEqual(v, v2) {
						t.Fatalf("step round trip: %v, %+v vs %+v", err, v, v2)
					}
				}
			case BinAck:
				var v AckFrame
				if DecodeAck(payload, &v) == nil {
					if id, err := BinaryAckID(payload); err != nil || id != v.ID {
						t.Fatalf("BinaryAckID %d/%v disagrees with DecodeAck id %d", id, err, v.ID)
					}
					rt := AppendAck(nil, &v)
					var v2 AckFrame
					if err := DecodeAck(rt, &v2); err != nil || !reflect.DeepEqual(v, v2) {
						t.Fatalf("ack round trip: %v, %+v vs %+v", err, v, v2)
					}
				}
			case BinError:
				var v ErrorFrame
				if DecodeErrorFrame(payload, &v) == nil {
					rt := AppendErrorFrame(nil, &v)
					var v2 ErrorFrame
					if err := DecodeErrorFrame(rt, &v2); err != nil || !reflect.DeepEqual(v, v2) {
						t.Fatalf("error round trip: %v, %+v vs %+v", err, v, v2)
					}
				}
			case BinBye, BinPing, BinPong:
				_, _ = DecodeControl(payload)
			}
		}
	})
}

// FuzzParseCheckpoint: checkpoint files come off disk and, during
// failover, off shared storage another process wrote — the parser must
// never panic, whatever the bytes.
func FuzzParseCheckpoint(f *testing.F) {
	for _, seed := range fuzzSeeds["FuzzParseCheckpoint"] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseCheckpoint(data)
	})
}
