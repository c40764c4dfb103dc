// Package wire defines the versioned JSON wire format of the serving API
// (internal/protocol, internal/server, cmd/mobserve): request/response
// bodies for the HTTP endpoints, the NDJSON frames of the streaming
// transport (POST /stream), the server-sent metrics events
// (GET /metrics/stream), and the checkpoint document.
//
// Everything that crosses a process boundary carries a version stamp
// ("v", currently V1); decoders reject unknown majors instead of guessing
// (CheckVersion), and request decoding is strict — unknown fields are an
// error, not a silently dropped no-op. Errors are typed (Error, with a
// stable Code) rather than status-code-only.
//
// Points travel as plain JSON arrays of coordinates. Go marshals float64
// values in the shortest form that round-trips to identical bits, so
// positions and costs reported over the wire are exact, matching the
// engine's checkpoint guarantees.
package wire

import (
	"fmt"
	"io"

	"repro/internal/geom"
)

// Point is a position on the wire: a JSON array of d coordinates.
type Point []float64

// StepRequest is the body of POST /step: one batch of requests to feed to
// the session. Batches that arrive within the server's coalescing window
// are merged into a single engine step.
type StepRequest struct {
	Requests []Point `json:"requests"`
}

// DecodeStepRequest reads one POST /step body strictly: unknown or
// misspelled fields (say "request" for "requests") are a decoding error,
// so a malformed payload is refused with 400 instead of half-applying as
// an empty batch.
func DecodeStepRequest(r io.Reader) (StepRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return StepRequest{}, err
	}
	var req StepRequest
	if err := UnmarshalStrict(data, &req); err != nil {
		return StepRequest{}, err
	}
	return req, nil
}

// Cost mirrors core.Cost with the redundant total included, so clients need
// no arithmetic to read it.
type Cost struct {
	Move  float64 `json:"move"`
	Serve float64 `json:"serve"`
	Total float64 `json:"total"`
}

// FromCost converts an engine cost (core.Cost) to its wire form. It takes
// any type shaped like core.Cost rather than core.Cost itself so that this
// package does not import core, and core can decode its state blobs
// through UnmarshalStrict.
func FromCost[C ~struct{ Move, Serve float64 }](c C) Cost {
	v := struct{ Move, Serve float64 }(c)
	return Cost{Move: v.Move, Serve: v.Serve, Total: v.Move + v.Serve}
}

// StepResponse is the body of a successful POST /step. When batches from
// several calls were coalesced into one engine step, each caller receives
// the same T, Batched, Cost, and Positions; Accepted is per-call.
type StepResponse struct {
	// T is the index of the engine step that served this batch.
	T int `json:"t"`
	// Accepted is the number of requests from this call.
	Accepted int `json:"accepted"`
	// Batched is the total number of requests coalesced into step T,
	// across all merged calls.
	Batched int `json:"batched"`
	// Cost is the cost of step T (shared by all merged calls; sum costs
	// per unique T to reconcile with GET /metrics).
	Cost Cost `json:"cost"`
	// Positions holds every server position after the step. In sharded
	// mode they are concatenated in shard order; fleet sizes may differ
	// per shard once rebalancing migrations have run, so use the servers
	// counts in GET /state's shards payload — not index arithmetic — to
	// attribute a slot to a shard.
	Positions []Point `json:"positions"`
	// Shards tags the step with each shard's share when the server runs
	// in router mode: how many of the step's requests each region
	// received and what its session charged. Absent on unsharded servers.
	Shards []ShardStep `json:"shards,omitempty"`
	// Clamped counts the step's cap-clamped server moves (only present
	// when nonzero). A forwarding tier needs it to keep exact fleet-wide
	// clamp counters without re-deriving engine behavior.
	Clamped int `json:"clamped,omitempty"`
}

// ShardStep is one shard's share of a single routed step.
type ShardStep struct {
	Shard  int  `json:"shard"`
	Routed int  `json:"routed"`
	Cost   Cost `json:"cost"`
}

// MetricsResponse is the body of GET /metrics: the engine.Metrics snapshot
// plus the front-end's own counters (and, in sharded mode, the per-shard
// aggregation the fleet totals are summed from).
type MetricsResponse struct {
	Steps       int     `json:"steps"`
	Requests    int     `json:"requests"`
	Cost        Cost    `json:"cost"`
	AvgStepCost float64 `json:"avg_step_cost"`
	// Rejected counts POST /step calls turned away with 429 since start.
	Rejected int64 `json:"rejected"`
	// QueueDepth is the number of batches waiting to be coalesced.
	QueueDepth int `json:"queue_depth"`
	// Shards breaks the totals down per region in router mode.
	Shards []ShardMetrics `json:"shards,omitempty"`
}

// ShardMetrics is one shard's slice of the aggregated metrics.
type ShardMetrics struct {
	Shard    int  `json:"shard"`
	Requests int  `json:"requests"`
	Cost     Cost `json:"cost"`
}

// StateResponse is the body of GET /state: the session's current positions
// and the engine.MoveStats snapshot.
type StateResponse struct {
	Algorithm string  `json:"algorithm"`
	T         int     `json:"t"`
	Positions []Point `json:"positions"`
	// MaxMove, TotalMove, and CapHits come from the MoveStats observer.
	MaxMove   float64 `json:"max_move"`
	TotalMove float64 `json:"total_move"`
	CapHits   int     `json:"cap_hits"`
	// Clamped counts cap-enforced server-moves over the whole run
	// (including any steps before a checkpoint/restore).
	Clamped int `json:"clamped"`
	// Cost is the run's accumulated cost so far.
	Cost Cost `json:"cost"`
	// Partition holds the shard layout's boundaries on axis 0 in router
	// mode (len(Partition)+1 shards). Absent on unsharded servers.
	Partition []float64 `json:"partition,omitempty"`
	// Shards holds each region's live counters in router mode.
	Shards []ShardState `json:"shards,omitempty"`
	// Workers holds the live shard→worker assignment in cluster mode
	// (Workers[i] is the address serving shard i; failovers change it).
	// Absent outside coordinator mode.
	Workers []string `json:"workers,omitempty"`
}

// ShardState is one shard's live counters inside GET /state.
type ShardState struct {
	Shard int `json:"shard"`
	// Servers is the shard's current fleet size; rebalancing migrations
	// change it, so the live layout is part of the state report.
	Servers  int `json:"servers"`
	Requests int `json:"requests"`
	Clamped  int `json:"clamped"`
	// Positions holds the shard's own servers.
	Positions []Point `json:"positions"`
	Cost      Cost    `json:"cost"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec accompanies 429: how long to back off before retrying
	// (also sent as the Retry-After header, whose resolution is whole
	// seconds — a coarse ceiling for millisecond coalescing windows).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// RetryAfterMs accompanies 429 with the precise backoff hint: one
	// coalescing window in milliseconds. Clients that can sleep
	// sub-second should prefer it over the header.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
	// ExecutedT accompanies 507 (checkpoint write failure): the engine
	// step that DID execute despite the error. The batch was served and
	// is in /metrics — resending it would double-feed the session; only
	// its durability is in doubt.
	ExecutedT *int `json:"executed_t,omitempty"`
}

// ToPoints validates and converts wire points into geometry points for a
// dim-dimensional session. It rejects dimension mismatches and non-finite
// coordinates so a malformed batch can be refused before it reaches the
// engine (and before it can poison batches it would be coalesced with).
func ToPoints(pts []Point, dim int) ([]geom.Point, error) {
	if err := ValidatePoints(pts, dim); err != nil {
		return nil, err
	}
	out := make([]geom.Point, len(pts))
	for i, c := range pts {
		out[i] = geom.Point(c).Clone()
	}
	return out, nil
}

// ValidatePoints is ToPoints' validation without the clone: it rejects
// dimension mismatches and non-finite coordinates. Transports that reuse
// decoded request buffers (the binary stream path) validate in place and
// hand the same storage to the engine.
func ValidatePoints(pts []Point, dim int) error {
	for i, c := range pts {
		p := geom.Point(c)
		if p.Dim() != dim {
			return fmt.Errorf("wire: request %d has dim %d, want %d", i, p.Dim(), dim)
		}
		if !p.IsFinite() {
			return fmt.Errorf("wire: request %d is not finite", i)
		}
	}
	return nil
}

// FromPoints converts geometry points to their wire form (sharing the
// coordinate storage; callers own any copying).
func FromPoints(pts []geom.Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point(p)
	}
	return out
}
