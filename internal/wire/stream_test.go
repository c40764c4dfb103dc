package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(V1); err != nil {
		t.Fatalf("CheckVersion(V1) = %v", err)
	}
	for _, v := range []int{0, 2, 99, -1} {
		if err := CheckVersion(v); err == nil {
			t.Fatalf("CheckVersion(%d) accepted an unknown major", v)
		}
	}
}

func TestPeekFrameDispatch(t *testing.T) {
	h, err := PeekFrame([]byte(`{"v":1,"type":"step","id":4,"requests":[[1,2]]}`))
	if err != nil || h.V != V1 || h.Type != FrameStep {
		t.Fatalf("peek = %+v, %v", h, err)
	}
	if _, err := PeekFrame([]byte(`{"v":1}`)); err == nil {
		t.Fatal("frame without type must not peek")
	}
	if _, err := PeekFrame([]byte(`{`)); err == nil {
		t.Fatal("bad JSON must not peek")
	}
}

// TestStrictFrameDecoding: the per-type frame decode rejects unknown
// fields, so a typo'd field name fails loudly instead of silently
// dropping the payload.
func TestStrictFrameDecoding(t *testing.T) {
	var step StepFrame
	good := `{"v":1,"type":"step","id":7,"requests":[[3,4]]}`
	if err := UnmarshalStrict([]byte(good), &step); err != nil {
		t.Fatal(err)
	}
	if step.ID != 7 || len(step.Requests) != 1 || step.Requests[0][1] != 4 {
		t.Fatalf("step = %+v", step)
	}
	bad := `{"v":1,"type":"step","id":7,"reqeusts":[[3,4]]}`
	if err := UnmarshalStrict([]byte(bad), &step); err == nil {
		t.Fatal("misspelled field must not decode")
	}
	trailing := good + `{"v":1}`
	if err := UnmarshalStrict([]byte(trailing), &step); err == nil {
		t.Fatal("trailing garbage must not decode")
	}
}

// TestDecodeStepRequestStrict pins the regression the HTTP handler relies
// on: unknown fields in a POST /step body are a decoding error (the
// handler turns it into 400), not a silently empty batch.
func TestDecodeStepRequestStrict(t *testing.T) {
	req, err := DecodeStepRequest(strings.NewReader(`{"requests":[[1,2],[3,4]]}`))
	if err != nil || len(req.Requests) != 2 {
		t.Fatalf("decode = %+v, %v", req, err)
	}
	for _, bad := range []string{
		`{"request":[[1,2]]}`,           // misspelled key: would half-apply as empty batch
		`{"requests":[[1,2]],"wait":1}`, // unknown extra field
		`{"requests":[[1,2]]} trailing`, // trailing garbage
	} {
		if _, err := DecodeStepRequest(strings.NewReader(bad)); err == nil {
			t.Fatalf("DecodeStepRequest(%s) accepted a malformed body", bad)
		}
	}
}

// TestAckFrameInlinesStepResponse: the ack frame carries the exact HTTP
// step-response schema inline, so both transports report one shape.
func TestAckFrameInlinesStepResponse(t *testing.T) {
	b, err := json.Marshal(AckFrame{
		V: V1, Type: FrameAck, ID: 3,
		StepResponse: StepResponse{T: 9, Accepted: 2, Batched: 5, Positions: []Point{{1, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"v":1`, `"type":"ack"`, `"id":3`, `"t":9`, `"accepted":2`, `"batched":5`, `"positions":[[1,2]]`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("ack frame %s missing %s", b, key)
		}
	}
	if strings.Contains(string(b), "StepResponse") {
		t.Fatalf("embedded response must be inlined: %s", b)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	tIdx := 41
	e := Error{Code: CodeNotDurable, Detail: "checkpoint failed", ExecutedT: &tIdx}
	b, err := json.Marshal(ErrorFrame{V: V1, Type: FrameError, Err: e})
	if err != nil {
		t.Fatal(err)
	}
	var back ErrorFrame
	if err := UnmarshalStrict(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err.Code != CodeNotDurable || back.Err.ExecutedT == nil || *back.Err.ExecutedT != 41 {
		t.Fatalf("round-trip = %+v", back.Err)
	}
	if back.ID != nil {
		t.Fatalf("connection-level error must carry no id: %+v", back)
	}
	if got := e.Error(); !strings.Contains(got, CodeNotDurable) || !strings.Contains(got, "checkpoint failed") {
		t.Fatalf("Error() = %q", got)
	}
}

// TestParseCheckpointVersions covers the two documents a checkpoint may
// be — the envelope and a bare snapshot — and the refusals: the
// pre-envelope "version" wrapper, unknown envelope fields, and an unknown
// major in the stamp.
func TestParseCheckpointVersions(t *testing.T) {
	session := json.RawMessage(`{"version":1,"steps":7}`)

	// Current envelope: "v" stamped.
	cur, _ := json.Marshal(Checkpoint{V: V1, Session: session})
	ck, err := ParseCheckpoint(cur)
	if err != nil || ck.V != V1 || string(ck.Session) != string(session) {
		t.Fatalf("current envelope = %+v, %v", ck, err)
	}

	// Legacy wrapper: only "version", as the pre-envelope format wrote it.
	legacy := []byte(`{"version":1,"session":{"version":1,"steps":7},"metrics":{"steps":7,"requests":14,"move_cost":1,"serve_cost":2,"avg_step_cost":0.5}}`)
	if ck, err := ParseCheckpoint(legacy); err == nil {
		t.Fatalf("legacy wrapper must be refused, got %+v", ck)
	}
	// ...and so is an envelope that also carries the legacy stamp, or the
	// retired last_step record: the envelope is decoded strictly.
	for _, doc := range []string{
		`{"v":1,"version":1,"session":{"version":1,"steps":7}}`,
		`{"v":1,"session":{"version":1,"steps":7},"last_step":{"t":6,"batched":1,"move_cost":0,"serve_cost":1}}`,
	} {
		if ck, err := ParseCheckpoint([]byte(doc)); err == nil {
			t.Fatalf("%s must be refused, got %+v", doc, ck)
		}
	}

	// Bare snapshot: no "session" key.
	ck, err = ParseCheckpoint(session)
	if err != nil || ck.V != V1 || string(ck.Session) != string(session) || ck.Metrics != nil {
		t.Fatalf("bare snapshot = %+v, %v", ck, err)
	}

	// Unknown major in the new stamp is refused.
	future, _ := json.Marshal(Checkpoint{V: 2, Session: session})
	if _, err := ParseCheckpoint(future); err == nil {
		t.Fatal("v2 checkpoint must be refused, not guessed at")
	}

	// ...even when the future format has no "session" key: it must be
	// rejected for its version, not misread as a bare engine snapshot.
	if _, err := ParseCheckpoint([]byte(`{"v":2,"snapshot":{"steps":7}}`)); err == nil {
		t.Fatal("v2 document without a session key must not pass as a bare snapshot")
	}
}
