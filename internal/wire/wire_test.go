package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseCheckpointWrapperAndLegacy(t *testing.T) {
	session := json.RawMessage(`{"version":1,"steps":7}`)
	wrapped, err := json.Marshal(Checkpoint{
		V:       V1,
		Session: session,
		Metrics: &MetricsState{Steps: 7, Requests: 21, MoveCost: 1.5, ServeCost: 2.5, AvgStepCost: 0.6},
		Moves:   &MoveState{Steps: 7, MaxMove: 1.2, TotalMove: 8, CapHits: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ParseCheckpoint(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if string(ck.Session) != string(session) {
		t.Fatalf("session = %s, want %s", ck.Session, session)
	}
	if ck.Metrics == nil || ck.Metrics.Requests != 21 || ck.Moves == nil || ck.Moves.CapHits != 3 {
		t.Fatalf("observer state lost: %+v", ck)
	}

	// A bare engine snapshot (no "session" key, what GET /snapshot serves)
	// becomes the session, with no observer state.
	legacy, err := ParseCheckpoint(session)
	if err != nil {
		t.Fatal(err)
	}
	if string(legacy.Session) != string(session) || legacy.Metrics != nil || legacy.Moves != nil {
		t.Fatalf("legacy normalization = %+v", legacy)
	}

	if _, err := ParseCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage must not parse")
	}
	bad, _ := json.Marshal(Checkpoint{V: 99, Session: session})
	if _, err := ParseCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version = %v, want version error", err)
	}
}

func TestShardPayloadsOmittedWhenUnsharded(t *testing.T) {
	b, err := json.Marshal(StepResponse{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "shards") {
		t.Fatalf("unsharded StepResponse must omit shards: %s", b)
	}
	b, err = json.Marshal(StateResponse{T: 3, Partition: []float64{-1, 1}, Shards: []ShardState{{Shard: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"partition":[-1,1]`) || !strings.Contains(string(b), `"shards"`) {
		t.Fatalf("sharded StateResponse missing shard payloads: %s", b)
	}
}
