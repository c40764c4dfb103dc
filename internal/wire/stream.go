package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// V1 is the current wire-format version. Every frame of the streaming
// transport (and every checkpoint document) carries it in a "v" field; the
// integer is the format's major version, so a consumer that sees a "v" it
// does not know must refuse the message rather than guess at its meaning.
const V1 = 1

// CheckVersion is the version-negotiation rule shared by every decoder:
// the major version must be one we speak. Additive minor evolution happens
// inside a major (new optional fields), so there is nothing to negotiate
// below the major.
func CheckVersion(v int) error {
	if v != V1 {
		return fmt.Errorf("wire: unsupported version %d (this endpoint speaks v%d)", v, V1)
	}
	return nil
}

// Frame types of the NDJSON streaming transport (POST /stream). Each frame
// is one JSON object on its own line; see the per-type structs for the
// grammar.
const (
	// FrameHello opens a stream (client -> server): version negotiation
	// plus an optional dimension check.
	FrameHello = "hello"
	// FrameWelcome accepts a stream (server -> client) and tells the
	// client where the session stands, so a reconnecting client can
	// resume from the last executed step.
	FrameWelcome = "welcome"
	// FrameStep submits one pipelined request batch (client -> server).
	FrameStep = "step"
	// FrameAck answers one step frame (server -> client), in submission
	// order, with the executed step's outcome.
	FrameAck = "ack"
	// FrameError reports a per-message or fatal error (server -> client).
	FrameError = "error"
	// FrameBye closes a stream gracefully (client -> server).
	FrameBye = "bye"
	// FramePing is a liveness probe (client -> server): the server answers
	// with a pong frame through the same ordered reply queue as the acks,
	// so any received frame proves the whole pipeline is alive, not just
	// the TCP connection.
	FramePing = "ping"
	// FramePong answers a ping (server -> client).
	FramePong = "pong"
)

// Error codes carried by Error.Code. They replace HTTP-status-only
// signaling on the streaming transport (and are stable API: clients switch
// on the code, not the detail text).
const (
	// CodeBadVersion: the hello (or a later frame) carried a version this
	// endpoint does not speak. Fatal: the connection closes.
	CodeBadVersion = "bad_version"
	// CodeBadFrame: the frame was not valid JSON, had no known type, or
	// carried unknown fields (decoding is strict).
	CodeBadFrame = "bad_frame"
	// CodeBadRequest: the frame was well-formed but its payload was
	// rejected (dimension mismatch, non-finite coordinates).
	CodeBadRequest = "bad_request"
	// CodeOverloaded: the bounded queue is full. Only the per-request
	// HTTP API refuses on a full queue (429 + Retry-After); a stream waits
	// for a queue slot instead, so no stream frame carries this code.
	CodeOverloaded = "overloaded"
	// CodeNotDurable: the step EXECUTED but its checkpoint write failed;
	// ExecutedT carries the step index. Resending would double-feed.
	CodeNotDurable = "not_durable"
	// CodeShuttingDown: the server is draining and accepts no new steps.
	CodeShuttingDown = "shutting_down"
	// CodeInternal: the step failed inside the engine.
	CodeInternal = "internal"
	// CodeUnreachable: a forwarding tier (the cluster coordinator) could
	// not reach the backend that owns the request's shard, even after its
	// bounded reconnect-and-failover policy ran out. The step did NOT
	// execute.
	CodeUnreachable = "unreachable"
)

// Error is the typed per-message error of the v1 protocol: a stable code,
// a human-readable detail, and the structured hints that HTTP smuggled
// through status codes and headers (Retry-After, the 507 executed-step
// index).
type Error struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
	// RetryAfterMS accompanies overloaded: how long to back off before
	// resending, in milliseconds.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
	// ExecutedT accompanies not_durable: the step that DID execute. The
	// batch was served and is in the metrics — do not resend it.
	ExecutedT *int `json:"executed_t,omitempty"`
}

// Error implements the error interface so adapters can wrap it.
func (e *Error) Error() string {
	if e.Detail == "" {
		return e.Code
	}
	return e.Code + ": " + e.Detail
}

// FrameHead is the envelope every frame shares: the version stamp and the
// frame type. Decoders peek it leniently to dispatch, then re-decode the
// full line strictly into the per-type struct.
type FrameHead struct {
	V    int    `json:"v"`
	Type string `json:"type"`
}

// PeekFrame reads just the envelope of one NDJSON line.
func PeekFrame(line []byte) (FrameHead, error) {
	var h FrameHead
	//moblint:rawdecode deliberately lenient envelope peek; the dispatched line is re-decoded strictly per type
	if err := json.Unmarshal(line, &h); err != nil {
		return FrameHead{}, fmt.Errorf("wire: bad frame: %w", err)
	}
	if h.Type == "" {
		return FrameHead{}, fmt.Errorf("wire: frame has no type")
	}
	return h, nil
}

// HelloFrame opens a stream: `{"v":1,"type":"hello"}`. Dim, when set,
// asks the server to confirm the session dimension before any step is
// sent.
type HelloFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	Dim  int    `json:"dim,omitempty"`
	// Wire, when set, asks the server to switch the stream to the named
	// frame encoding (WireBinary or WireNDJSON) after the welcome. The
	// handshake itself is always NDJSON. Servers that predate the field
	// reject the hello strictly (bad_frame), which clients treat as "speak
	// NDJSON" by re-dialing without the field.
	Wire string `json:"wire,omitempty"`
	// Window, when > 1, asks the server to accept up to Window pipelined
	// step frames in flight at once with suffix-replay reconciliation
	// (see WelcomeFrame.Ring). Absent or <= 1 is lockstep — the only
	// behavior before the field existed. Servers that predate the field
	// reject the hello strictly (bad_frame), which clients treat exactly
	// like the wire downgrade: re-dial without the field and run lockstep.
	Window int `json:"window,omitempty"`
}

// WelcomeFrame accepts a stream:
// `{"v":1,"type":"welcome","algorithm":"MtC","t":12,"dim":2}`.
// T is the session's current step count — the next executed step gets
// index T — so a reconnecting client knows exactly which of its batches
// were executed before the connection died (every step up to T-1 was).
type WelcomeFrame struct {
	V         int    `json:"v"`
	Type      string `json:"type"`
	Algorithm string `json:"algorithm"`
	T         int    `json:"t"`
	Dim       int    `json:"dim"`
	// Last carries the outcome of the last executed step (step T-1), when
	// the session has executed any. A reconnecting pipeliner whose final
	// ack was lost mid-flight recovers the executed step's exact outcome
	// from here instead of resending the batch (which would double-feed).
	// Absent at T == 0 and on sessions resumed from checkpoints that
	// predate the field.
	Last *LastStep `json:"last,omitempty"`
	// Wire confirms the frame encoding of every frame after this welcome.
	// Empty means NDJSON (the only encoding before the field existed). A
	// server never confirms an encoding the hello did not ask for.
	Wire string `json:"wire,omitempty"`
	// Window is the granted in-flight pipeline depth: the server accepts
	// up to Window unacked step frames and retains a ring of the last
	// Window executed outcomes for suffix-replay recovery. Never more
	// than the hello asked for; absent or <= 1 means lockstep.
	Window int `json:"window,omitempty"`
	// Ring carries the outcomes of the most recent executed steps, oldest
	// first and ending with step T-1, each with its post-step positions —
	// the suffix-replay recovery payload. A reconnecting pipeliner with
	// several unacked frames recovers every frame below T from here
	// (matching entries by step index) and resends the rest. Last always
	// duplicates the newest entry, so pre-window consumers keep working.
	Ring []LastStep `json:"ring,omitempty"`
}

// LastStep is the recovery payload inside a welcome frame: the outcome of
// the session's most recent executed step, exactly as its (possibly lost)
// ack reported it. Costs and positions are exact float64 round-trips, so a
// consumer reconstructing the lost ack from this payload stays bit-equal
// with one that received the ack directly.
type LastStep struct {
	// T is the executed step's index (the welcome's T minus one).
	T int `json:"t"`
	// Batched is the number of requests the step served.
	Batched int `json:"batched"`
	// Cost is the step's own cost.
	Cost Cost `json:"cost"`
	// Clamped counts the step's cap-clamped server moves.
	Clamped int `json:"clamped,omitempty"`
	// Positions holds every server position after the step.
	Positions []Point `json:"positions"`
}

// PingFrame is a liveness probe: `{"v":1,"type":"ping"}`. The server
// answers with a pong through the ordered reply queue.
type PingFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
}

// PongFrame answers a ping: `{"v":1,"type":"pong"}`.
type PongFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
}

// StepFrame submits one batch:
// `{"v":1,"type":"step","id":7,"requests":[[3,4],[5,6]]}`.
// ID is chosen by the client (unique per connection; monotonically
// increasing by convention) and echoed on the ack/error that answers the
// frame, so a pipelining client can match replies without counting.
type StepFrame struct {
	V        int     `json:"v"`
	Type     string  `json:"type"`
	ID       int64   `json:"id"`
	Requests []Point `json:"requests"`
}

// AckFrame answers one step frame with the outcome of the engine step that
// served it; the embedded StepResponse fields are identical to the HTTP
// POST /step body, so both transports report one schema. Replies arrive in
// frame-submission order.
type AckFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	ID   int64  `json:"id"`
	StepResponse
}

// ErrorFrame reports an error. With an ID it answers that step frame (in
// order, like an ack); without one it is connection-level and the server
// closes the stream after writing it.
type ErrorFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	ID   *int64 `json:"id,omitempty"`
	Err  Error  `json:"error"`
}

// ByeFrame ends a stream gracefully: the server finishes answering every
// submitted frame, then closes. `{"v":1,"type":"bye"}`.
type ByeFrame struct {
	V    int    `json:"v"`
	Type string `json:"type"`
}

// MetricsEvent is one server-sent event of GET /metrics/stream, pushed
// after every executed step: the step's own outcome plus the running
// totals of GET /metrics at that instant. Dropped counts the events this
// subscriber missed immediately before this one because it consumed too
// slowly (the server drops rather than buffer without bound or stall the
// step loop).
type MetricsEvent struct {
	V        int  `json:"v"`
	T        int  `json:"t"`
	Batched  int  `json:"batched"`
	StepCost Cost `json:"step_cost"`

	Steps       int     `json:"steps"`
	Requests    int     `json:"requests"`
	Cost        Cost    `json:"cost"`
	AvgStepCost float64 `json:"avg_step_cost"`
	QueueDepth  int     `json:"queue_depth"`
	Rejected    int64   `json:"rejected"`

	Dropped int `json:"dropped,omitempty"`
}

// RebalanceEvent is one server-sent event of GET /metrics/stream with
// event type "rebalance": a dynamic-rebalancing migration the identified
// step applied. It rides the same stream as the metrics events, so a
// dashboard following the feed sees layout changes in order with the load
// that triggered them.
type RebalanceEvent struct {
	V int `json:"v"`
	// T is the first global step served under the new layout.
	T int `json:"t"`
	// From and To are the donor and recipient shards.
	From int `json:"from"`
	To   int `json:"to"`
	// Server is the migrated server's position (it does not move during
	// the handover; it only changes which region's session commands it).
	Server Point `json:"server"`
	// Ks is the per-shard fleet layout after the migration.
	Ks []int `json:"ks"`
}

// FailoverEvent is one server-sent event of GET /metrics/stream with event
// type "failover": the cluster coordinator lost a shard worker and rehomed
// the shard onto another worker by restoring its last fsynced checkpoint.
// It rides the same stream as the metrics events, so a dashboard following
// the feed sees ownership changes in order with the traffic around them.
type FailoverEvent struct {
	V int `json:"v"`
	// T is the global step the coordinator was feeding when the worker
	// died (the first step served by the new owner).
	T int `json:"t"`
	// Shard is the rehomed shard.
	Shard int `json:"shard"`
	// From and To are the dead and the new owner's worker addresses.
	From string `json:"from"`
	To   string `json:"to"`
	// RestoredT is the step count the new owner reported after restoring
	// the shard's checkpoint. In lockstep it is T (the in-flight step had
	// not executed and was resent) or T+1 (it had executed and its
	// outcome was recovered from the welcome instead of resending); with
	// a pipeline window of W unacked steps it lands anywhere in
	// [T, T+W] — steps below RestoredT are recovered from the welcome's
	// ring, steps at or above it are resent in order.
	RestoredT int `json:"restored_t"`
	// Resent reports whether any in-flight step was resent (RestoredT
	// did not cover the whole unacked suffix).
	Resent bool `json:"resent"`
}

// UnmarshalStrict decodes one JSON document rejecting unknown fields, so a
// misspelled field in a frame or request body is an error instead of a
// silently ignored no-op. It also rejects trailing garbage after the
// document.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	//moblint:rawdecode this is the strict decoder every other decode is required to use
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("wire: trailing data after JSON document")
	}
	return nil
}
