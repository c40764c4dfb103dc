// Package protocol is the transport-neutral serving core: it owns a
// session-shaped Backend — a single engine.Session or a shard.Router — and
// turns it into a Service that any transport adapter (the HTTP mux and the
// NDJSON streaming transport in internal/server, tests driving it
// directly) can expose without re-implementing serving semantics.
//
// The Service owns everything that used to live inside the HTTP server:
//
//   - the single step loop that drives the backend (the engine itself
//     stays single-threaded): every backend is submitted to and resolved
//     through one pipelined window, and a synchronous backend is driven
//     as a window of 1;
//   - the coalescing window that merges concurrently submitted batches
//     into one engine step;
//   - the bounded queue: Submit refuses a full queue with typed
//     backpressure (OverloadError) instead of transport-specific status
//     codes, and Enqueue waits for a slot, so a pipelining transport
//     stops reading instead of reordering;
//   - checkpointing: atomic writes before acknowledgement, with
//     DurabilityError marking the executed-but-not-durable case;
//   - the Metrics/MoveStats observers and their snapshot reads;
//   - a push subscription API (Watch) publishing a MetricsEvent per
//     executed step, with a per-subscriber drop policy so a slow consumer
//     can never stall the step loop.
//
// Transports translate: HTTP maps OverloadError to 429 + Retry-After and
// DurabilityError to 507; the streaming transport enqueues through the
// waiting Enqueue, so a full queue stalls its reader (TCP backpressure),
// and maps the remaining errors to typed error frames. The semantics live
// here, once.
package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fsx"
	"repro/internal/geom"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Backend is the session the service drives: one batch per step, with the
// engine.Session accessor surface. engine.Session implements it directly;
// shard.Router implements it by routing each step across its per-region
// sessions and aggregating the results.
type Backend interface {
	Step(requests []geom.Point) error
	T() int
	Algorithm() string
	Cost() core.Cost
	Clamped() int
	Positions() []geom.Point
	Snapshot() ([]byte, error)
	Finish() *engine.Result
}

// RegionBackend is the surface every backend that partitions the fleet
// into axis-0 regions exposes — shard.Router in-process, and the cluster
// coordinator across processes. The service uses it to tag snapshots,
// metrics, and acks with per-shard payloads.
type RegionBackend interface {
	Backend
	Partition() core.Partition
	LastSteps() []shard.StepStat
	States() []shard.State
}

// ShardedBackend is the extra surface a router-mode backend exposes on top
// of the region surface: installing and observing the dynamic rebalancing
// policy. The cluster coordinator is a RegionBackend but not a
// ShardedBackend — migrating servers between shards that live in different
// processes is future work (see ROADMAP).
type ShardedBackend interface {
	RegionBackend
	SetRebalancer(shard.Rebalancer)
	LastRebalance() *shard.RebalanceEvent
}

// PipelinedBackend is the surface the service's step loop drives: StepAsync
// submits one step's batch without waiting and ResolveOldest blocks for the
// oldest in-flight step, applying its outcome to the backend's mirrors and
// notifying the observers exactly as a synchronous Step would — so
// everything the service reads after a resolve (T, Cost, Positions,
// LastSteps, the observer counters) reflects precisely the resolved
// prefix. Both are called only from the service's step loop, under the
// service lock, with resolves strictly in submission order. Window caps
// how many submissions the backend can hold unresolved.
//
// A forwarding-tier backend (the cluster coordinator) implements it to
// keep several steps in flight at once; any other Backend is driven
// through an internal adapter whose window is 1.
//
// The batch passed to StepAsync must stay valid and unmodified until its
// ResolveOldest returns (a failover resends it).
type PipelinedBackend interface {
	Backend
	StepAsync(requests []geom.Point) error
	ResolveOldest() error
	Window() int
}

// FailoverBackend is the optional surface a forwarding-tier backend (the
// cluster coordinator) exposes: the live shard→worker assignment and the
// failover events the most recent step applied. The service mirrors them
// into StateSnapshot.Workers and MetricsEvent.Failovers.
type FailoverBackend interface {
	// Assignments returns the worker address currently serving each shard
	// (a caller-owned copy).
	Assignments() []string
	// LastFailovers returns the rehoming events applied while executing
	// the most recent step, or nil; the slice is caller-owned.
	LastFailovers() []wire.FailoverEvent
}

// Options configures the service. The zero value serves with strict cap
// checking, no coalescing wait, a queue of DefaultQueueLimit batches, and
// no checkpointing.
type Options struct {
	// CoalesceWindow is how long the step loop waits after the first
	// queued batch for more batches to merge into the same engine step.
	// Zero merges only batches that are already queued, without waiting.
	CoalesceWindow time.Duration
	// QueueLimit bounds the number of batches waiting for the step loop;
	// a full queue refuses Submit with OverloadError and makes Enqueue
	// wait for a slot. Default DefaultQueueLimit.
	QueueLimit int
	// CheckpointPath, when non-empty, enables checkpointing: the session
	// snapshot is written there atomically (tmp file + rename) after every
	// CheckpointEvery-th step, before the step's callers are acknowledged.
	CheckpointPath string
	// CheckpointEvery is the number of steps between checkpoints.
	// Default 1 (checkpoint after every step).
	CheckpointEvery int
	// CommitEvery, when > 1, amortizes checkpoint durability with group
	// commit: executed steps are held unacknowledged until CommitEvery of
	// them have accumulated (or the queue goes idle, or the service
	// drains), then ONE checkpoint write — taken after the newest held
	// step, so it covers every step in the group — is made durable and the
	// whole group is acknowledged at once. Checkpoint-before-ack is
	// preserved per group: an acknowledged step is always covered by a
	// durable checkpoint, which a per-step cadence buys with one fsync per
	// step and group commit buys with one fsync per CommitEvery steps.
	// Overrides CheckpointEvery, has no effect without a CheckpointPath,
	// and is mutually exclusive with Window (a pipelining coordinator does
	// not checkpoint; its workers do).
	CommitEvery int
	// AckRing, when > 1, keeps the outcomes of the most recent AckRing
	// executed steps — each with a deep copy of its post-step positions —
	// instead of only the newest (the ring always holds at least one
	// entry). The ring is persisted in the checkpoint and re-served in
	// WelcomeFrame.Ring, so a pipelined client that reconnects with up to
	// AckRing frames in flight can recover every executed step's exact
	// outcome and resend only the true suffix. It is also the pipelined
	// window the service advertises (MaxWindow).
	AckRing int
	// Window, when > 1 and the backend implements PipelinedBackend, lets
	// the step loop keep up to Window backend steps in flight at once
	// (submitting new steps while earlier ones await their acks) instead
	// of resolving each before the next. Acknowledgements, observer
	// updates, and Watch events still happen strictly in step order, at
	// each resolve.
	Window int
	// NoCoalesce pins exactly one queued batch per engine step: the loop
	// never merges concurrently queued batches. A pipelining forwarding
	// tier needs it on the receiving service — with several frames in
	// flight the coalescer would merge them into one engine step and
	// desynchronize the sender's step numbering.
	NoCoalesce bool
	// Mode and Tol configure the engine's cap enforcement.
	Mode engine.Mode
	Tol  float64
	// Observers are extra engine observers appended after the service's
	// own metrics and movement-stats observers. They are notified from the
	// step loop; implementations must not call back into the service.
	Observers []engine.Observer
	// Rebalancer, when non-nil, installs a dynamic rebalancing policy on a
	// router-mode backend: per-shard load is watched over the policy's
	// sliding window and servers migrate between neighboring shards when
	// the skew crosses its threshold. Applied migrations ride the Watch
	// feed as MetricsEvent.Rebalance. Requires NewSharded/ResumeSharded —
	// an unsharded backend has nothing to rebalance and is refused.
	Rebalancer shard.Rebalancer
}

// DefaultQueueLimit is the queue bound used when Options.QueueLimit is 0.
const DefaultQueueLimit = 64

func (o Options) withDefaults() Options {
	if o.QueueLimit <= 0 {
		o.QueueLimit = DefaultQueueLimit
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	if o.CommitEvery <= 1 || o.CheckpointPath == "" {
		o.CommitEvery = 1
	}
	return o
}

// Ack is the typed outcome of one executed engine step, handed to every
// caller whose batch was coalesced into it. All merged callers share T,
// Batched, Cost, Positions, and Shards; Accepted is per-caller.
type Ack struct {
	// T is the index of the engine step that served this batch.
	T int
	// Accepted is the number of requests from this caller.
	Accepted int
	// Batched is the total number of requests coalesced into step T.
	Batched int
	// Cost is the cost of step T.
	Cost core.Cost
	// Positions holds every server position after the step (read-only;
	// shared between merged callers). When the backend supports in-place
	// position copies the slice is a pooled buffer: it stays valid until
	// every merged caller has called Release, and must not be retained
	// past that point.
	Positions []geom.Point
	// Shards tags the step with each shard's share in router mode; nil on
	// unsharded backends.
	Shards []shard.StepStat
	// Clamped counts the step's cap-clamped server moves, so a forwarding
	// tier can keep exact fleet-wide clamp counters without re-deriving
	// engine behavior.
	Clamped int

	// buf is the pooled backing of Positions, reference-counted across the
	// merged callers; nil when the positions were freshly allocated.
	buf *posBuf
}

// Release hands the ack's pooled position buffer back to the service once
// this caller is done reading Positions. Call it exactly once per ack
// received (copies of one ack share the buffer — only one copy may release
// it); calling it on an ack without a pooled buffer is a no-op. After
// Release the ack's Positions are nil.
func (a *Ack) Release() {
	b := a.buf
	if b == nil {
		return
	}
	a.buf = nil
	a.Positions = nil
	if b.refs.Add(-1) == 0 {
		b.svc.posPool.Put(b)
	}
}

// posBuf is a pooled position buffer shared by the acks of one executed
// step; refs counts the merged callers that have not yet released it.
type posBuf struct {
	pts  []geom.Point
	refs atomic.Int32
	svc  *Service
}

// positionsInto is the optional backend fast path: copy the current
// positions into a reusable buffer instead of allocating a fresh clone
// per step. engine.Session implements it.
type positionsInto interface {
	PositionsInto([]geom.Point) []geom.Point
}

// LastStep is one entry of the ack ring (RecentSteps): an executed step's
// index, batch size, own cost, clamp count, and post-step positions, kept
// so a streaming transport can re-serve lost acks to a reconnecting client
// (WelcomeFrame.Ring). It survives restarts — the checkpoint document
// persists the ring alongside the observers.
type LastStep struct {
	T         int
	Batched   int
	Cost      core.Cost
	Clamped   int
	Positions []geom.Point
}

// MetricsSnapshot is the service's aggregate counters at one instant: the
// engine.Metrics observer plus the service's own queue counters (and the
// per-shard aggregation in router mode).
type MetricsSnapshot struct {
	Steps       int
	Requests    int
	Cost        core.Cost
	AvgStepCost float64
	// Rejected counts Submit calls turned away with OverloadError since
	// start.
	Rejected int64
	// QueueDepth is the number of batches waiting to be coalesced.
	QueueDepth int
	// Shards breaks the totals down per region in router mode; nil
	// otherwise.
	Shards []shard.State
}

// StateSnapshot is the session's live state at one instant: positions plus
// the engine.MoveStats observer.
type StateSnapshot struct {
	Algorithm string
	T         int
	Positions []geom.Point
	MaxMove   float64
	TotalMove float64
	CapHits   int
	Clamped   int
	Cost      core.Cost
	// Partition holds the shard layout in router mode; nil otherwise.
	Partition core.Partition
	// Shards holds each region's live counters in router mode.
	Shards []shard.State
	// Workers holds the live shard→worker assignment when the backend is a
	// cluster coordinator (Workers[i] serves shard i); nil otherwise.
	Workers []string
}

// OverloadError is Submit's typed backpressure: the bounded queue is full
// and the batch was NOT enqueued. Resubmit after RetryAfterMS. (Enqueue
// waits for a slot instead.)
type OverloadError struct {
	// RetryAfterMS is the suggested backoff: one coalescing window in
	// milliseconds, at least 1.
	RetryAfterMS int
}

func (e *OverloadError) Error() string {
	return "step queue is full"
}

// DurabilityError reports an executed-but-not-durable step: the engine
// step RAN (the session advanced and the batch is counted in the metrics)
// but its checkpoint write failed. The caller must not resubmit the batch
// — that would feed it again as a new step; only its durability is in
// doubt.
type DurabilityError struct {
	// ExecutedT is the step that did execute.
	ExecutedT int
	// Err is the underlying checkpoint write error.
	Err error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("step %d executed but checkpoint failed: %v", e.ExecutedT, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// UnreachableError reports that a forwarding tier could not reach the
// backend owning part of the batch, even after its bounded
// reconnect-and-failover policy ran out of candidates. The step did NOT
// execute; the caller may resubmit once the fleet recovers. Transports map
// it to 502 (HTTP) and the "unreachable" error code (streaming).
type UnreachableError struct {
	// Addr is the last address tried.
	Addr string
	// Attempts is the total number of connection attempts made before
	// giving up.
	Attempts int
	// Err is the last underlying dial or transport error.
	Err error
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("backend %s unreachable after %d attempts: %v", e.Addr, e.Attempts, e.Err)
}

func (e *UnreachableError) Unwrap() error { return e.Err }

// ErrShuttingDown is returned by Submit/Enqueue once Close has begun: the
// service accepts no new batches while draining.
var ErrShuttingDown = errors.New("server is shutting down")

// batch is one enqueued submission with its reply channel.
type batch struct {
	reqs  []geom.Point
	reply chan outcome
}

// outcome is what the step loop hands back to a waiting Pending.
type outcome struct {
	ack Ack
	err error
}

// ringStep is one ack-ring entry: the persisted outcome of an executed
// step plus a deep copy of its post-step positions. Intermediate entries
// need their own positions — the session only holds the newest fleet, and
// suffix-replay recovery re-serves each in-flight step's exact outcome.
type ringStep struct {
	st  wire.LastStepState
	pos []geom.Point
}

// heldStep is one executed-but-unacknowledged step awaiting the group
// commit that makes it durable: the merged callers to reply to, the ack
// they share, and the Watch event to publish once released.
type heldStep struct {
	items []batch
	ack   Ack
	ev    MetricsEvent
}

// flight is one submitted-but-unresolved step: the merged callers and
// their combined batch, owned by the flight until its resolve replies (a
// backend failover resends the batch, so the request storage must stay
// untouched until then). The backend and its observers must not retain
// the batch past the resolve, which lets the transports reuse the request
// buffers once their ack arrives.
type flight struct {
	items []batch
	reqs  []geom.Point
	total int
}

// Pending is an in-flight submission: the batch is enqueued (it owns a
// queue slot) and will be coalesced into an engine step by the loop. Wait
// blocks for that step's outcome. Each Pending must be waited at most
// once; dropping it without waiting leaks nothing (the reply is buffered).
type Pending struct {
	n   int
	ch  chan outcome
	svc *Service
	// consumed records that Wait actually read the outcome, making the
	// reply channel provably empty and the Pending safe to pool.
	consumed bool
}

// Wait blocks until the submission's engine step has executed (or the
// service shut down before reaching it) and returns the typed outcome.
// The error is nil, a *DurabilityError (step executed, checkpoint did
// not land), ErrShuttingDown (step never executed), or an engine error.
func (p *Pending) Wait() (Ack, error) {
	select {
	case out := <-p.ch:
		p.consumed = true
		return out.ack, out.err
	case <-p.svc.loopDone:
		// The loop exited; the shutdown drain may still have served us.
		select {
		case out := <-p.ch:
			p.consumed = true
			return out.ack, out.err
		default:
			return Ack{}, ErrShuttingDown
		}
	}
}

// Release returns the Pending to the service's pool for reuse by a later
// Enqueue. Call it only after Wait has returned (and at most once); a
// Pending that shut down before its outcome arrived is left to the
// garbage collector, since the drain could still deliver into its
// channel.
func (p *Pending) Release() {
	if p == nil || !p.consumed {
		return
	}
	p.consumed = false
	svc := p.svc
	p.svc = nil
	svc.pendPool.Put(p)
}

// Service owns a backend and serves it to transport adapters. Create one
// with New/Resume/NewSharded/ResumeSharded, submit batches with Submit (or
// Enqueue + Wait to pipeline), and Close it to drain the queue and write
// the final checkpoint.
type Service struct {
	cfg  core.Config
	opts Options

	// mu guards the session and the observers attached to it. Step runs
	// only in the step loop; readers take mu for consistent snapshots.
	mu          sync.Mutex
	sess        Backend
	metrics     *engine.Metrics
	moves       *engine.MoveStats
	lastCost    core.Cost
	lastClamped int

	// pipe is what the step loop submits to and resolves: the backend
	// itself when it is pipelined, else the lockstep adapter around it.
	// window is how many submissions the loop keeps unresolved.
	pipe   PipelinedBackend
	window int

	// Hot-path pools and scratch: pendPool recycles Pending values (and
	// their reply channels) across Enqueue/Release cycles, posPool recycles
	// the ack position buffers across steps, and itemsBuf is the step
	// loop's private coalescing scratch (the loop is one goroutine, so it
	// needs no lock).
	pendPool sync.Pool
	posPool  sync.Pool
	itemsBuf []batch

	// ring is the ack ring (oldest first, newest last, capped at
	// max(1, Options.AckRing)): the recovery state every welcome and
	// checkpoint carries, guarded by mu like the rest of the step outcome.
	// Entry position storage is recycled as the ring rotates.
	ring []ringStep
	// held, heldFree, and flightFree are step-loop private (like
	// itemsBuf): the executed-but-unacknowledged steps awaiting a group
	// commit, and the free lists recycling their storage.
	held       []heldStep
	heldFree   [][]batch
	flightFree []flight

	// ckptDir is the checkpoint directory handle, opened once at start and
	// held for the service's lifetime so the post-rename directory fsync
	// does not re-open the directory on every write; nil when the open
	// failed (writes fall back to per-write opens) or checkpointing is
	// off. ckptBuf/ckptEnc are the reused checkpoint encoding buffer —
	// both are touched only by the step loop.
	ckptDir *os.File
	ckptBuf bytes.Buffer
	ckptEnc *json.Encoder

	queue    chan batch
	rejected atomic.Int64
	closing  atomic.Bool
	aborting atomic.Bool
	closed   chan struct{}
	loopDone chan struct{}
	closeErr error
	once     sync.Once

	// subMu guards the Watch subscribers.
	subMu      sync.Mutex
	subs       map[*subscriber]struct{}
	subsClosed bool
}

// New starts a service around a fresh session.
func New(cfg core.Config, starts []geom.Point, alg core.FleetAlgorithm, opts Options) (*Service, error) {
	return start(cfg, opts, nil, func(eopts engine.Options) (Backend, error) {
		return engine.NewSession(cfg, starts, alg, eopts)
	})
}

// Resume starts a service around a session restored from checkpoint bytes:
// the step counter, costs, positions, and algorithm state continue exactly
// where the snapshot was taken. The bytes may be a checkpoint document
// written by this layer (whose observer state reseeds the metrics and
// state snapshots, so dashboards survive the restart) or a bare engine
// snapshot (observers start fresh and cover only the resumed part).
func Resume(cfg core.Config, alg core.FleetAlgorithm, snapshot []byte, opts Options) (*Service, error) {
	ck, err := wire.ParseCheckpoint(snapshot)
	if err != nil {
		return nil, err
	}
	return start(cfg, opts, &ck, func(eopts engine.Options) (Backend, error) {
		return engine.Restore(cfg, alg, ck.Session, eopts)
	})
}

// NewSharded starts a service in router mode: one fleet of cfg.Servers()
// servers per shard of cfg.Partition, each request routed to its region's
// session and all shards stepped concurrently (see shard.New). starts
// holds one fleet layout per shard and newAlg constructs one independent
// controller per shard.
func NewSharded(cfg core.Config, starts [][]geom.Point, newAlg func() core.FleetAlgorithm, opts Options) (*Service, error) {
	return start(cfg, opts, nil, func(eopts engine.Options) (Backend, error) {
		return shard.New(cfg, starts, newAlg, eopts)
	})
}

// ResumeSharded starts a router-mode service from a checkpoint written by
// a sharded service: every shard session resumes exactly where the
// combined snapshot was taken (shard.Restore rejects a mismatched shard
// layout), and persisted observer state reseeds the metrics and state
// snapshots. From a bare combined snapshot, step/request/cost totals are
// instead reconstructed from the router's own counters; the decayed
// average and movement stats restart.
func ResumeSharded(cfg core.Config, newAlg func() core.FleetAlgorithm, snapshot []byte, opts Options) (*Service, error) {
	ck, err := wire.ParseCheckpoint(snapshot)
	if err != nil {
		return nil, err
	}
	return start(cfg, opts, &ck, func(eopts engine.Options) (Backend, error) {
		return shard.Restore(cfg, newAlg, ck.Session, eopts)
	})
}

// NewFromBackend starts a service around a backend the caller constructs —
// the hook a forwarding tier (the cluster coordinator) uses to put the full
// serving core (coalescing, bounded queue, checkpointing, Watch) in front
// of a backend this package does not know how to build. open receives the
// engine options the service needs wired through: the cap mode/tolerance
// and the service's observers, which the backend must notify exactly once
// per executed step (as shard.Router does). A backend that opens already
// advanced (adopting workers mid-run) has its fleet metrics reconciled from
// the backend's own counters, like a resume from a bare router snapshot.
func NewFromBackend(cfg core.Config, open func(engine.Options) (Backend, error), opts Options) (*Service, error) {
	return start(cfg, opts, nil, open)
}

func start(cfg core.Config, opts Options, ck *wire.Checkpoint, open func(engine.Options) (Backend, error)) (*Service, error) {
	opts = opts.withDefaults()
	if opts.Window > 1 && opts.CommitEvery > 1 {
		return nil, errors.New("protocol: Window and CommitEvery are mutually exclusive")
	}
	s := &Service{
		cfg:      cfg,
		opts:     opts,
		metrics:  &engine.Metrics{},
		moves:    &engine.MoveStats{},
		queue:    make(chan batch, opts.QueueLimit),
		closed:   make(chan struct{}),
		loopDone: make(chan struct{}),
		subs:     map[*subscriber]struct{}{},
	}
	obs := []engine.Observer{
		engine.Func(func(info engine.StepInfo) {
			s.lastCost = info.Cost
			s.lastClamped = info.Clamped
		}),
		s.metrics,
		s.moves,
	}
	obs = append(obs, opts.Observers...)
	sess, err := open(engine.Options{Mode: opts.Mode, Tol: opts.Tol, Observers: obs})
	if err != nil {
		return nil, err
	}
	s.sess = sess
	pb, ok := sess.(PipelinedBackend)
	if !ok {
		if opts.Window > 1 {
			return nil, errors.New("protocol: Window > 1 requires a pipelined backend")
		}
		pb = &lockstep{Backend: sess}
	}
	s.pipe = pb
	s.window = max(1, opts.Window)
	if bw := pb.Window(); bw > 0 && bw < s.window {
		s.window = bw
	}
	if opts.CheckpointPath != "" {
		if dir, err := os.Open(filepath.Dir(opts.CheckpointPath)); err == nil {
			s.ckptDir = dir
		}
	}
	if opts.Rebalancer != nil {
		sb, ok := sess.(ShardedBackend)
		if !ok {
			return nil, errors.New("protocol: a rebalancer requires a sharded backend")
		}
		sb.SetRebalancer(opts.Rebalancer)
	}
	if ck != nil {
		s.seedObservers(*ck)
		if ck.Metrics == nil {
			s.reconcileShardedMetrics()
		}
	} else if sess.T() > 0 {
		// A backend opened without a checkpoint but already advanced: a
		// coordinator adopting workers mid-run. Rebuild the fleet metrics
		// from the backend's own counters so totals and shards agree.
		s.reconcileShardedMetrics()
	}
	go s.loop()
	return s, nil
}

// reconcileShardedMetrics covers a resume from a bare router snapshot (no
// persisted observer state): the router restores its per-shard request
// counters, so the fleet-level Metrics observer must agree with their sum
// or the metrics would report shards that do not add up to the totals.
// Steps, requests, and cost are reconstructed from the backend; the
// decayed average (and the movement stats, which no snapshot carries)
// restart.
func (s *Service) reconcileShardedMetrics() {
	sb, ok := s.sess.(RegionBackend)
	if !ok {
		return
	}
	s.metrics.Steps = s.sess.T()
	s.metrics.Cost = s.sess.Cost()
	s.metrics.Requests = 0
	for _, st := range sb.States() {
		s.metrics.Requests += st.Requests
	}
}

// seedObservers reinstates the observer state persisted in a checkpoint
// document, so a resumed service's metrics and state continue the
// pre-crash totals instead of starting from zero. Runs before the step
// loop starts, so no lock is needed.
func (s *Service) seedObservers(ck wire.Checkpoint) {
	if m := ck.Metrics; m != nil {
		s.metrics.Steps = m.Steps
		s.metrics.Requests = m.Requests
		s.metrics.Cost = core.Cost{Move: m.MoveCost, Serve: m.ServeCost}
		s.metrics.AvgStepCost = m.AvgStepCost
	}
	if mv := ck.Moves; mv != nil {
		s.moves.Steps = mv.Steps
		s.moves.MaxMove = mv.MaxMove
		s.moves.TotalMove = mv.TotalMove
		s.moves.CapHits = mv.CapHits
	}
	// Keep the newest ring entries this incarnation holds: a checkpoint
	// written under a deeper ring still restores the suffix it can serve.
	entries := ck.Ring
	if extra := len(entries) - s.ringCap(); extra > 0 {
		entries = entries[extra:]
	}
	for _, r := range entries {
		e := ringStep{st: r.LastStepState}
		e.pos = make([]geom.Point, len(r.Positions))
		for i, p := range r.Positions {
			e.pos[i] = append(geom.Point(nil), p...)
		}
		s.ring = append(s.ring, e)
	}
}

// ringCap is the ack ring's depth: Options.AckRing, at least 1.
func (s *Service) ringCap() int {
	return max(1, s.opts.AckRing)
}

// Config returns the configuration the service was opened with.
func (s *Service) Config() core.Config { return s.cfg }

// T returns the session's current step count.
func (s *Service) T() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.T()
}

// Algorithm returns the backend's reported name (in router mode the
// per-shard algorithm tagged with the shard count, e.g. "MtC-k×4").
func (s *Service) Algorithm() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.Algorithm()
}

// Closing reports whether Close has begun; a closing service refuses new
// submissions with ErrShuttingDown.
func (s *Service) Closing() bool { return s.closing.Load() }

// QueueDepth is the number of batches waiting to be coalesced. Unlike
// Metrics it does not take the session lock, so it is safe to poll while
// a step (or a blocking observer) is in flight.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Rejected counts Submit calls turned away with OverloadError since
// start. Like QueueDepth it does not take the session lock.
func (s *Service) Rejected() int64 { return s.rejected.Load() }

// RetryAfterMS is the backoff hint attached to OverloadError: one
// coalescing window in milliseconds, at least 1.
func (s *Service) RetryAfterMS() int {
	ms := int(s.opts.CoalesceWindow.Milliseconds())
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Enqueue submits a pre-validated batch without waiting for its step: it
// claims a queue slot and returns a Pending to Wait on, so a pipelining
// transport can keep submitting while earlier steps execute. A full queue
// makes it wait for a slot, so batches enter the queue in the order their
// Enqueue calls began and a transport that enqueues from its reader
// stops reading instead of refusing; once Close begins it returns
// ErrShuttingDown.
func (s *Service) Enqueue(reqs []geom.Point) (*Pending, error) {
	return s.enqueue(reqs, true)
}

// Submit feeds one batch and blocks until its engine step has executed.
// Unlike Enqueue it does not wait for a queue slot: a full queue refuses
// the batch with *OverloadError (counted in Rejected), which the HTTP
// transport answers with 429 + Retry-After.
func (s *Service) Submit(reqs []geom.Point) (Ack, error) {
	p, err := s.enqueue(reqs, false)
	if err != nil {
		return Ack{}, err
	}
	ack, err := p.Wait()
	p.Release()
	return ack, err
}

// enqueue claims a queue slot for reqs. When the queue is full it waits
// for a slot (or for Close to begin) if wait is set, and otherwise refuses
// with *OverloadError.
func (s *Service) enqueue(reqs []geom.Point, wait bool) (*Pending, error) {
	if s.closing.Load() {
		return nil, ErrShuttingDown
	}
	var p *Pending
	if v := s.pendPool.Get(); v != nil {
		p = v.(*Pending)
	} else {
		p = &Pending{ch: make(chan outcome, 1)}
	}
	p.n = len(reqs)
	p.svc = s
	p.consumed = false
	b := batch{reqs: reqs, reply: p.ch}
	var err error
	select {
	case s.queue <- b:
		return p, nil
	default:
	}
	if wait {
		select {
		case s.queue <- b:
			return p, nil
		case <-s.closed:
			err = ErrShuttingDown
		}
	} else {
		s.rejected.Add(1)
		err = &OverloadError{RetryAfterMS: s.RetryAfterMS()}
	}
	p.svc = nil
	s.pendPool.Put(p)
	return nil, err
}

// Metrics returns the aggregate counters at this instant.
func (s *Service) Metrics() MetricsSnapshot {
	s.mu.Lock()
	m := MetricsSnapshot{
		Steps:       s.metrics.Steps,
		Requests:    s.metrics.Requests,
		Cost:        s.metrics.Cost,
		AvgStepCost: s.metrics.AvgStepCost,
	}
	if sb, ok := s.sess.(RegionBackend); ok {
		m.Shards = sb.States()
	}
	s.mu.Unlock()
	m.Rejected = s.rejected.Load()
	m.QueueDepth = len(s.queue)
	return m
}

// State returns the session's live state at this instant.
func (s *Service) State() StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StateSnapshot{
		Algorithm: s.sess.Algorithm(),
		T:         s.sess.T(),
		Positions: s.sess.Positions(),
		MaxMove:   s.moves.MaxMove,
		TotalMove: s.moves.TotalMove,
		CapHits:   s.moves.CapHits,
		Clamped:   s.sess.Clamped(),
		Cost:      s.sess.Cost(),
	}
	if sb, ok := s.sess.(RegionBackend); ok {
		st.Partition = append(core.Partition(nil), sb.Partition()...)
		st.Shards = sb.States()
	}
	if fb, ok := s.sess.(FailoverBackend); ok {
		st.Workers = fb.Assignments()
	}
	return st
}

// MaxWindow reports how many pipelined step frames the service can
// reconcile for a reconnecting client: the ack-ring depth, which is 1
// (lockstep) unless Options.AckRing is larger. The streaming transport
// caps the window it grants in the welcome at this value.
func (s *Service) MaxWindow() int { return s.ringCap() }

// RecentSteps returns the ack ring — the outcomes of the most recent
// executed steps (up to max(1, Options.AckRing)), oldest first and ending
// with the newest — with deep-copied positions, or nil before any step has
// run (and on services resumed from a bare snapshot). Streaming transports
// re-serve it inside the welcome frame (WelcomeFrame.Ring) so a
// reconnecting client can reconcile every in-flight frame, recovering a
// lost ack instead of resending its batch.
func (s *Service) RecentSteps() []LastStep {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return nil
	}
	out := make([]LastStep, len(s.ring))
	for i, e := range s.ring {
		pos := make([]geom.Point, len(e.pos))
		for j, p := range e.pos {
			pos[j] = append(geom.Point(nil), p...)
		}
		out[i] = LastStep{
			T:         e.st.T,
			Batched:   e.st.Batched,
			Cost:      core.Cost{Move: e.st.MoveCost, Serve: e.st.ServeCost},
			Clamped:   e.st.Clamped,
			Positions: pos,
		}
	}
	return out
}

// Snapshot returns the backend's bare resumable snapshot (what
// GET /snapshot serves; observer state is not included — checkpoint files
// written by the service itself carry it).
func (s *Service) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.Snapshot()
}

// Close stops accepting traffic, drains the already-queued batches through
// the session, writes a final checkpoint (when configured), closes every
// Watch subscription, and waits for the step loop to exit. It returns the
// final checkpoint error, if any.
func (s *Service) Close() error {
	s.once.Do(func() {
		s.closing.Store(true)
		close(s.closed)
		<-s.loopDone
	})
	return s.closeErr
}

// Abort is Close without the final flush: still-queued batches are refused
// with ErrShuttingDown instead of executed, and no final checkpoint is
// written. It is for retiring a service whose checkpoint file may since
// have been handed to a NEWER incarnation (a shard worker dropping a
// session another worker took over): with per-step checkpointing every
// acknowledged step is already durable, so the only thing a final write
// could do is clobber the newer incarnation's file with stale state.
func (s *Service) Abort() error {
	s.aborting.Store(true)
	return s.Close()
}

// Finish closes the underlying session and returns its accumulated result.
// Call it after Close; a finished session cannot be snapshotted or resumed.
func (s *Service) Finish() *engine.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess.Finish()
}

// loop is the single goroutine that steps the session: it pulls the first
// queued batch, coalesces what arrives within the window into one step,
// and submits it. It keeps submitting while the queue has work and the
// pipeline window has room, and resolves the oldest step when the window
// is full or the queue goes idle — so pipelining never adds latency to a
// sparse stream, and a dense stream overlaps each step's round trip with
// the submission of the next. A synchronous backend runs through the
// lockstep adapter with a window of 1, so every step is resolved right
// after its submission. With group commit, resolved steps accumulate
// unacknowledged until the group is due.
func (s *Service) loop() {
	defer s.closeSubs()
	defer close(s.loopDone)
	if s.ckptDir != nil {
		defer s.ckptDir.Close()
	}
	var flights []flight
	for {
		if len(flights) == 0 {
			select {
			case <-s.closed:
				s.drain()
				return
			case first := <-s.queue:
				flights = s.submit(flights, s.window, s.coalesce(first))
			}
		} else {
			select {
			case first := <-s.queue:
				flights = s.submit(flights, s.window, s.coalesce(first))
			case <-s.closed:
				for len(flights) > 0 {
					flights = s.resolveOldest(flights)
				}
				s.drain()
				return
			default:
				flights = s.resolveOldest(flights)
			}
		}
		if len(s.held) > 0 && (len(s.held) >= s.opts.CommitEvery || len(s.queue) == 0) {
			s.commitHeld()
		}
	}
}

// lockstep adapts a synchronous Backend to the loop's pipelined surface
// with a window of 1: StepAsync only keeps the batch and ResolveOldest
// runs Step on it, so each step and its bookkeeping happen under one hold
// of the service lock — a reader never sees T advanced before the step's
// ring entry exists.
type lockstep struct {
	Backend
	reqs []geom.Point
}

func (l *lockstep) StepAsync(reqs []geom.Point) error {
	l.reqs = reqs
	return nil
}

func (l *lockstep) ResolveOldest() error {
	reqs := l.reqs
	l.reqs = nil
	return l.Step(reqs)
}

func (l *lockstep) Window() int { return 1 }

// submit copies the coalesced items out of the loop scratch into a
// (recycled) flight, submits its merged batch without waiting, and
// appends it to the in-flight list. A refused submission replies at once —
// the step never started. When the submission fills a window of w, the
// oldest flight is resolved under the same hold of the lock.
func (s *Service) submit(flights []flight, w int, items []batch) []flight {
	var f flight
	if n := len(s.flightFree); n > 0 {
		f = s.flightFree[n-1]
		s.flightFree = s.flightFree[:n-1]
	}
	f.items = append(f.items[:0], items...)
	f.reqs = f.reqs[:0]
	f.total = 0
	for _, b := range items {
		f.reqs = append(f.reqs, b.reqs...)
		f.total += len(b.reqs)
	}
	s.mu.Lock()
	if err := s.pipe.StepAsync(f.reqs); err != nil {
		s.mu.Unlock()
		for _, b := range f.items {
			b.reply <- outcome{err: err}
		}
		s.flightFree = append(s.flightFree, f)
		return flights
	}
	flights = append(flights, f)
	if len(flights) < w {
		s.mu.Unlock()
		return flights
	}
	return s.resolveOldestLocked(flights)
}

// resolveOldest resolves the oldest in-flight step; see
// resolveOldestLocked.
func (s *Service) resolveOldest(flights []flight) []flight {
	s.mu.Lock()
	return s.resolveOldestLocked(flights)
}

// resolveOldestLocked blocks for the oldest in-flight step's outcome and
// finishes it: ack, ring, checkpoint if due, replies, Watch event. Called
// with mu held; releases it.
func (s *Service) resolveOldestLocked(flights []flight) []flight {
	f := flights[0]
	copy(flights, flights[1:])
	flights = flights[:len(flights)-1]
	err := s.pipe.ResolveOldest()
	s.finishStepLocked(f.items, f.total, err)
	s.flightFree = append(s.flightFree, f)
	return flights
}

// coalesce gathers the batches that share first's engine step into the
// loop's reusable scratch slice (valid until the next coalesce call).
func (s *Service) coalesce(first batch) []batch {
	items := append(s.itemsBuf[:0], first)
	defer func() { s.itemsBuf = items }()
	if s.opts.NoCoalesce {
		return items
	}
	if w := s.opts.CoalesceWindow; w > 0 {
		timer := time.NewTimer(w)
		defer timer.Stop()
		for {
			select {
			case b := <-s.queue:
				items = append(items, b)
			case <-timer.C:
				return items
			case <-s.closed:
				return items
			}
		}
	}
	for {
		select {
		case b := <-s.queue:
			items = append(items, b)
		default:
			return items
		}
	}
}

// drain executes every batch still queued at shutdown (one step each,
// resolved before the next, no coalescing wait) and writes the final
// checkpoint. An aborting service (Abort) instead refuses the queued
// batches and skips the write — it must not touch a checkpoint file that
// may no longer be its own.
func (s *Service) drain() {
	for {
		select {
		case b := <-s.queue:
			if s.aborting.Load() {
				b.reply <- outcome{err: ErrShuttingDown}
				continue
			}
			s.submit(nil, 1, []batch{b})
			if len(s.held) >= s.opts.CommitEvery {
				s.commitHeld()
			}
		default:
			if s.aborting.Load() {
				s.abortHeld()
				return
			}
			if len(s.held) > 0 {
				// The commit writes a checkpoint at the final state, so the
				// unconditional shutdown write below would only duplicate it.
				s.closeErr = s.commitHeld()
				return
			}
			s.closeErr = s.checkpointNow()
			return
		}
	}
}

// commitHeld makes the held group durable with one checkpoint write —
// taken at the current state, which is exactly the newest held step, so it
// covers the whole group — then releases every held acknowledgement and
// Watch event in step order. A failed write degrades each ack to a
// DurabilityError, same as the per-step path; the returned error is that
// write error, if any.
func (s *Service) commitHeld() error {
	held := s.held
	s.held = s.held[:0]
	s.mu.Lock()
	snap, snapErr := s.checkpointDoc()
	s.mu.Unlock()
	if snapErr == nil {
		snapErr = writeAtomic(s.opts.CheckpointPath, snap, s.ckptDir)
	}
	for i := range held {
		h := &held[i]
		var err error
		if snapErr != nil {
			err = &DurabilityError{ExecutedT: h.ack.T, Err: snapErr}
		}
		for _, b := range h.items {
			a := h.ack
			a.Accepted = len(b.reqs)
			b.reply <- outcome{ack: a, err: err}
		}
		s.heldFree = append(s.heldFree, h.items[:0])
		h.items = nil
		h.ev.QueueDepth = len(s.queue)
		h.ev.Rejected = s.rejected.Load()
		s.publish(h.ev)
	}
	return snapErr
}

// abortHeld releases the held group without touching the checkpoint file
// (Abort must not clobber a file that may belong to a newer incarnation):
// the steps executed but their durability is unknown, which is precisely a
// DurabilityError.
func (s *Service) abortHeld() {
	for i := range s.held {
		h := &s.held[i]
		err := &DurabilityError{ExecutedT: h.ack.T, Err: ErrShuttingDown}
		for _, b := range h.items {
			a := h.ack
			a.Accepted = len(b.reqs)
			b.reply <- outcome{ack: a, err: err}
		}
		s.heldFree = append(s.heldFree, h.items[:0])
		h.items = nil
	}
	s.held = s.held[:0]
}

// finishStepLocked is everything that follows a backend step's resolve.
// It builds the ack and Watch event, pushes the step onto the ack ring,
// and either releases the step immediately (checkpointing first when due)
// or appends it to the held group for a later commit. A due checkpoint is
// written before the acknowledgements, so with CheckpointEvery == 1 an
// acknowledged step is never lost to a crash (larger cadences acknowledge
// the steps between checkpoints before they are durable). Called with mu
// held; releases it.
func (s *Service) finishStepLocked(items []batch, total int, err error) {
	var ack Ack
	var ev MetricsEvent
	var snap []byte
	var snapErr error
	hold := false
	if err == nil {
		ack = Ack{
			T:       s.sess.T() - 1,
			Batched: total,
			Cost:    s.lastCost,
			Clamped: s.lastClamped,
		}
		if pi, ok := s.sess.(positionsInto); ok {
			var pb *posBuf
			if v := s.posPool.Get(); v != nil {
				pb = v.(*posBuf)
			} else {
				pb = &posBuf{svc: s}
			}
			pb.pts = pi.PositionsInto(pb.pts)
			pb.refs.Store(int32(len(items)))
			ack.Positions = pb.pts
			ack.buf = pb
		} else {
			ack.Positions = s.sess.Positions()
		}
		s.pushRingLocked(wire.LastStepState{
			T:         ack.T,
			Batched:   total,
			MoveCost:  s.lastCost.Move,
			ServeCost: s.lastCost.Serve,
			Clamped:   s.lastClamped,
		}, ack.Positions)
		ev = MetricsEvent{
			T:           ack.T,
			Batched:     total,
			StepCost:    s.lastCost,
			Steps:       s.metrics.Steps,
			Requests:    s.metrics.Requests,
			Cost:        s.metrics.Cost,
			AvgStepCost: s.metrics.AvgStepCost,
		}
		if sb, ok := s.sess.(RegionBackend); ok {
			// LastSteps returns a caller-owned copy, so the ack can carry
			// it across the lock boundary as-is.
			ack.Shards = sb.LastSteps()
		}
		if sb, ok := s.sess.(ShardedBackend); ok {
			ev.Rebalance = sb.LastRebalance()
		}
		if fb, ok := s.sess.(FailoverBackend); ok {
			ev.Failovers = fb.LastFailovers()
		}
		if s.opts.CommitEvery > 1 {
			hold = true
			var hi []batch
			if n := len(s.heldFree); n > 0 {
				hi = s.heldFree[n-1]
				s.heldFree = s.heldFree[:n-1]
			}
			s.held = append(s.held, heldStep{items: append(hi, items...), ack: ack, ev: ev})
		} else if s.opts.CheckpointPath != "" && s.sess.T()%s.opts.CheckpointEvery == 0 {
			snap, snapErr = s.checkpointDoc()
		}
	}
	s.mu.Unlock()
	if hold {
		return
	}

	if snap != nil {
		snapErr = writeAtomic(s.opts.CheckpointPath, snap, s.ckptDir)
	}
	executed := err == nil
	if executed && snapErr != nil {
		// The step ran but is not durable; surface that to the callers
		// rather than acknowledging a step a crash could silently lose.
		err = &DurabilityError{ExecutedT: ack.T, Err: snapErr}
	}
	for _, b := range items {
		a := ack
		a.Accepted = len(b.reqs)
		b.reply <- outcome{ack: a, err: err}
	}
	if executed {
		ev.QueueDepth = len(s.queue)
		ev.Rejected = s.rejected.Load()
		s.publish(ev)
	}
}

// pushRingLocked appends the just-executed step's outcome and a deep copy
// of its positions to the ack ring, rotating the oldest entry out — and
// recycling its position storage — once the ring is at capacity. The
// caller must hold mu.
func (s *Service) pushRingLocked(st wire.LastStepState, pts []geom.Point) {
	var e ringStep
	if len(s.ring) >= s.ringCap() {
		e = s.ring[0]
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:len(s.ring)-1]
	}
	e.st = st
	if cap(e.pos) < len(pts) {
		e.pos = append(e.pos[:cap(e.pos)], make([]geom.Point, len(pts)-cap(e.pos))...)
	}
	e.pos = e.pos[:len(pts)]
	for i, p := range pts {
		if cap(e.pos[i]) < len(p) {
			e.pos[i] = make(geom.Point, len(p))
		}
		e.pos[i] = e.pos[i][:len(p)]
		copy(e.pos[i], p)
	}
	s.ring = append(s.ring, e)
}

// checkpointNow snapshots and writes the checkpoint file unconditionally
// (used at shutdown). A service without a checkpoint path does nothing.
func (s *Service) checkpointNow() error {
	if s.opts.CheckpointPath == "" {
		return nil
	}
	s.mu.Lock()
	snap, err := s.checkpointDoc()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return writeAtomic(s.opts.CheckpointPath, snap, s.ckptDir)
}

// checkpointDoc marshals the checkpoint document: the backend snapshot
// plus the current observer state and the ack ring, captured together so
// the file is one consistent cut of the run, stamped with the wire
// version. The encoding reuses
// the service's checkpoint buffer, so the returned bytes are valid only
// until the next checkpointDoc call — write them before re-marshaling.
// The caller must hold mu (the step loop is the only caller, which is what
// makes the single buffer safe).
func (s *Service) checkpointDoc() ([]byte, error) {
	sess, err := s.sess.Snapshot()
	if err != nil {
		return nil, err
	}
	doc := wire.Checkpoint{
		V:       wire.V1,
		Session: sess,
		Metrics: &wire.MetricsState{
			Steps:       s.metrics.Steps,
			Requests:    s.metrics.Requests,
			MoveCost:    s.metrics.Cost.Move,
			ServeCost:   s.metrics.Cost.Serve,
			AvgStepCost: s.metrics.AvgStepCost,
		},
		Moves: &wire.MoveState{
			Steps:     s.moves.Steps,
			MaxMove:   s.moves.MaxMove,
			TotalMove: s.moves.TotalMove,
			CapHits:   s.moves.CapHits,
		},
	}
	if len(s.ring) > 0 {
		doc.Ring = make([]wire.RingStep, len(s.ring))
		for i, e := range s.ring {
			doc.Ring[i] = wire.RingStep{
				LastStepState: e.st,
				Positions:     wire.FromPoints(e.pos),
			}
		}
	}
	s.ckptBuf.Reset()
	if s.ckptEnc == nil {
		s.ckptEnc = json.NewEncoder(&s.ckptBuf)
	}
	if err := s.ckptEnc.Encode(&doc); err != nil {
		return nil, err
	}
	// Drop the encoder's trailing newline: the file bytes stay identical
	// to what json.Marshal produced before the buffer was reused.
	b := s.ckptBuf.Bytes()
	return b[:len(b)-1], nil
}

// writeAtomic writes data to path via a temp file in the same directory,
// fsync, and an atomic rename (fsx.WriteFileAtomic), so neither a process
// kill mid-write nor a system crash shortly after leaves a torn or empty
// checkpoint. dir, when non-nil, is the already-open parent directory
// handle used to make the rename itself durable without re-opening the
// directory on every write.
func writeAtomic(path string, data []byte, dir *os.File) error {
	return fsx.WriteFileAtomic(path, data, dir)
}
