package wire

import (
	"encoding/json"
	"fmt"
)

// Checkpoint is the document the serving layer writes to its checkpoint
// file: the resumable session snapshot (an engine.Session snapshot, or a
// shard.Router combined snapshot in router mode) plus the state of the
// service's own observers, so metrics and state survive a restart
// instead of starting from zero. The session document is embedded
// verbatim — its byte-exactness guarantees are untouched by the wrapper.
type Checkpoint struct {
	// V is the wire-format version stamp (V1).
	V int `json:"v"`
	// Session is the engine or router snapshot to resume from.
	Session json.RawMessage `json:"session"`
	// Metrics carries the engine.Metrics observer state at checkpoint
	// time; nil when the checkpoint was read from a bare snapshot.
	Metrics *MetricsState `json:"metrics,omitempty"`
	// Moves carries the engine.MoveStats observer state.
	Moves *MoveState `json:"moves,omitempty"`
	// Ring carries the outcomes of the most recent executed steps (the
	// service's ack ring: one entry in lockstep, up to the pipelined
	// window otherwise), oldest first and ending with the final step
	// executed before the checkpoint was taken; nil before any step ran.
	// A resumed service re-serves it in its welcomes, so a client
	// reconnecting after the process died between checkpoint and ack can
	// still recover every executed step's exact outcome.
	Ring []RingStep `json:"ring,omitempty"`
}

// RingStep is one persisted ack-ring entry: a LastStepState plus the
// step's post-step positions, which only the newest entry could recover
// from the session snapshot.
type RingStep struct {
	LastStepState
	Positions []Point `json:"positions"`
}

// LastStepState is the serialized outcome of one executed step. Move and
// serve costs are kept separately so the restored value continues from
// identical float64 bits.
type LastStepState struct {
	T         int     `json:"t"`
	Batched   int     `json:"batched"`
	MoveCost  float64 `json:"move_cost"`
	ServeCost float64 `json:"serve_cost"`
	Clamped   int     `json:"clamped,omitempty"`
}

// MetricsState is the serialized engine.Metrics observer: running totals
// and the decayed per-step cost average. Move and serve costs are kept
// separately (not as the redundant-total Cost) so the restored observer
// continues from the identical float64 bits.
type MetricsState struct {
	Steps       int     `json:"steps"`
	Requests    int     `json:"requests"`
	MoveCost    float64 `json:"move_cost"`
	ServeCost   float64 `json:"serve_cost"`
	AvgStepCost float64 `json:"avg_step_cost"`
}

// MoveState is the serialized engine.MoveStats observer.
type MoveState struct {
	Steps     int     `json:"steps"`
	MaxMove   float64 `json:"max_move"`
	TotalMove float64 `json:"total_move"`
	CapHits   int     `json:"cap_hits"`
}

// ParseCheckpoint decodes a checkpoint file body: either the envelope the
// serving layer writes ({"v":1,"session":...}, decoded strictly) or a bare
// session snapshot, as GET /snapshot serves it, whose observer fields and
// ring come back nil so a resume starts them fresh. An unknown "v" is
// refused, and so is an envelope without one (the pre-envelope "version"
// wrapper): refusing to guess beats resuming a session from a document we
// might misread.
func ParseCheckpoint(data []byte) (Checkpoint, error) {
	var probe struct {
		V       int             `json:"v"`
		Session json.RawMessage `json:"session"`
	}
	//moblint:rawdecode a bare snapshot and an envelope differ only in their keys, so this lenient probe tells them apart; an envelope is then decoded strictly
	if err := json.Unmarshal(data, &probe); err != nil {
		return Checkpoint{}, fmt.Errorf("wire: bad checkpoint: %w", err)
	}
	// A carried "v" stamp is validated before anything else — even before
	// the bare-snapshot fallback, so a future-major document whose layout
	// we cannot know (it may not have a "session" key at all) is refused
	// instead of misread as a bare engine snapshot.
	if probe.V != 0 {
		if err := CheckVersion(probe.V); err != nil {
			return Checkpoint{}, fmt.Errorf("wire: bad checkpoint: %w", err)
		}
	}
	if len(probe.Session) == 0 {
		// No "session" key: a bare engine/router snapshot.
		return Checkpoint{V: V1, Session: data}, nil
	}
	if probe.V == 0 {
		return Checkpoint{}, fmt.Errorf("wire: bad checkpoint: envelope has no \"v\" stamp")
	}
	var ck Checkpoint
	if err := UnmarshalStrict(data, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("wire: bad checkpoint: %w", err)
	}
	return ck, nil
}
