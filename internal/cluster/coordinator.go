// Package cluster is the distributed fleet layer: it splits the sharded
// serving stack across processes. A Coordinator is a thin forwarding
// backend — it implements the protocol layer's region surface
// (protocol.RegionBackend), routes each global step's batch to the worker
// that owns each shard by axis-0 position, and merges the per-shard acks
// back into the exact combined step/metrics/snapshot shapes shard.Router
// produces in-process. A Worker hosts the per-shard engine sessions behind
// the versioned NDJSON streaming transport, checkpointing every step
// before acknowledgement.
//
// Failover invariant: no acknowledged step is ever lost, and no step is
// ever fed twice. Workers checkpoint (fsynced, atomic rename) before they
// ack, so when a worker dies mid-step its checkpoint holds the shard at
// either T == t (the in-flight step never executed) or T == t+1 (it
// executed but the ack was lost). The coordinator rehomes the shard by
// dialing another worker with ?floor=t, reads the welcome's step count,
// and reconciles: T == t resends the batch; T == t+1 recovers the executed
// step's exact outcome from the welcome's recovery ring (welcome.ring,
// whose newest entry is step T-1) instead of resending. Any other T is a
// fatal lockstep violation and the coordinator refuses to continue.
//
// With a pipelined window (CoordinatorOptions.Window > 1) the invariant
// generalizes: up to W steps are in flight per shard, workers amortize the
// per-step fsync with group commit and keep an ack ring of their last W
// executed steps, and a restored worker at any T within
// [t_oldest, t_newest+1] is reconciled by recovering the executed prefix
// from the welcome's ring and resending the rest in order — exactly-once
// at every crash offset inside the window.
//
// What is NOT fault-tolerant: the coordinator itself is a single point of
// control. If it crashes after some shards executed step t but before all
// did, the workers are stranded one step apart; a replacement coordinator
// detects the disagreeing welcomes at startup and refuses to adopt the
// fleet rather than guess. Dynamic rebalancing (server migration between
// shards) is also not available in cluster mode yet — shards live in
// different processes, and migrating server state across them is the
// ROADMAP's cross-host re-partitioning item.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/streamclient"
	"repro/internal/wire"
)

// CoordinatorOptions configures the forwarding tier.
type CoordinatorOptions struct {
	// Workers lists the worker addresses (host:port or URL). Shard i is
	// initially assigned to Workers[i % len(Workers)]; every address is a
	// failover candidate for every shard. Required.
	Workers []string
	// Heartbeat is the per-connection liveness cadence: a ping rides each
	// idle stream at this interval, and a connection silent for 3× the
	// interval is declared dead, triggering failover on the next step
	// instead of hanging it. Zero disables the probe (connection failures
	// are still detected by the transport itself).
	Heartbeat time.Duration
	// MaxAttempts, BaseBackoff, and MaxBackoff bound the reconnect storm
	// per candidate address (see streamclient.Options); after every
	// candidate is exhausted the step fails with a typed
	// *protocol.UnreachableError.
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Wire selects the frame encoding requested from workers: empty (or
	// streamclient.WireAuto) negotiates binary with transparent NDJSON
	// fallback for older workers; wire.WireNDJSON pins NDJSON;
	// wire.WireBinary requires binary. The mirrors are bit-identical
	// either way — binary acks carry exact float64 bits, like JSON's
	// round-trip — so /metrics, /state, and /snapshot do not depend on
	// the choice.
	Wire string
	// Window, when > 1, asks every worker for a pipelined ingestion window
	// and lets the coordinator keep up to that many global steps in flight
	// at once (StepAsync/ResolveOldest) instead of paying one full
	// round-trip — and one worker checkpoint fsync — of latency per step.
	// The usable window is the minimum the workers grant, floored at 1, so
	// a mixed fleet with one lockstep worker degrades to lockstep instead
	// of breaking. Failover reconciliation reads the welcome's ack ring:
	// a restored worker at step T recovers every in-flight step below T
	// from the ring and is resent the rest, in order, so no step is lost
	// or double-fed at any crash offset within the window.
	Window int
}

// shardAck is one shard's share of a global step, as recovered from its
// ack (or from a welcome's recovery payload after a failover).
type shardAck struct {
	cost      core.Cost
	clamped   int
	positions []geom.Point
}

// cflight is one submitted-but-unresolved global step: its index, the
// per-shard request buckets (owned by the flight — a failover resends
// them), and per-shard resolution state. The per-shard slices are indexed
// by shard and each element is touched only by that shard's resolve
// goroutine, so concurrent per-shard resolution never collides.
type cflight struct {
	t    int
	reqs []geom.Point // the step's merged batch, for the observers at resolve
	// buckets[i] is shard i's share; pends[i] its in-flight frame on the
	// current connection (nil when unsent or already reconciled);
	// sendErr[i] a submission failure repaired by failover at resolve;
	// recovered[i] an outcome a failover already recovered from a welcome
	// ring ahead of this flight's own resolve.
	buckets   [][]wire.Point
	pends     []*streamclient.Pending
	sendErr   []error
	recovered []*wire.StepResponse
}

// Coordinator forwards steps to shard workers and aggregates their
// outcomes, mirroring shard.Router's combined views exactly: per-shard
// costs, clamp and request counters, positions, and the merged per-step
// StepInfo are all reconstructed bit-identically from the acks (JSON
// float64 round-trips are exact), so a cluster run's /metrics, /state,
// and /snapshot match the in-process router's byte for byte.
//
// Like a Router, a Coordinator is driven by one goroutine (the service's
// step loop); the concurrency is inside Step, across shards.
type Coordinator struct {
	cfg  core.Config
	opts CoordinatorOptions
	obs  []engine.Observer
	name string

	assign  []int // shard i is served by opts.Workers[assign[i]]
	clients []*streamclient.Client

	// window is the usable pipelined window (min of what the workers
	// granted and opts.Window, floored at 1); flights holds the submitted
	// steps not yet resolved, oldest first. Both are driven by the single
	// service step loop, like everything else on the coordinator.
	window  int
	flights []*cflight

	steps     int
	requests  []int
	costs     []core.Cost
	clamped   []int
	pos       [][]geom.Point // live per-shard positions, mirrored from acks
	spare     [][]geom.Point // per-shard double buffer the next ack copies into
	last      []shard.StepStat
	failovers []wire.FailoverEvent
	maxMove   float64

	err      error
	finished bool
	res      *engine.Result
}

// NewCoordinator dials every shard's worker, verifies the fleet is in
// lockstep (all welcomes at the same step count — a disagreeing fleet is
// refused rather than guessed at), seeds its mirrors from the workers'
// live state, and announces the run to the observers in eopts. Mode and
// Tol in eopts are ignored: cap enforcement happens on the workers.
func NewCoordinator(cfg core.Config, opts CoordinatorOptions, eopts engine.Options) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker address")
	}
	n := cfg.Partition.Shards()
	c := &Coordinator{
		cfg:      cfg,
		opts:     opts,
		obs:      eopts.Observers,
		assign:   make([]int, n),
		clients:  make([]*streamclient.Client, n),
		requests: make([]int, n),
		costs:    make([]core.Cost, n),
		clamped:  make([]int, n),
		pos:      make([][]geom.Point, n),
		spare:    make([][]geom.Point, n),
		last:     make([]shard.StepStat, n),
	}
	for i := 0; i < n; i++ {
		c.assign[i] = i % len(opts.Workers)
		cl, err := streamclient.Dial(opts.Workers[c.assign[i]], c.streamPath(i, 0), c.dialOpts())
		if err != nil {
			c.closeClients()
			return nil, fmt.Errorf("cluster: shard %d on %s: %w", i, opts.Workers[c.assign[i]], err)
		}
		c.clients[i] = cl
	}
	w0 := c.clients[0].Welcome()
	c.name = fmt.Sprintf("%s×%d", w0.Algorithm, n)
	c.steps = w0.T
	for i, cl := range c.clients {
		w := cl.Welcome()
		if w.T != c.steps {
			c.closeClients()
			return nil, fmt.Errorf("cluster: fleet out of lockstep: shard 0 at step %d, shard %d at step %d — refusing to adopt", c.steps, i, w.T)
		}
		if w.Algorithm != w0.Algorithm {
			c.closeClients()
			return nil, fmt.Errorf("cluster: shard 0 runs %s, shard %d runs %s", w0.Algorithm, i, w.Algorithm)
		}
	}
	// The usable window is what the least-granting worker allows: a mixed
	// fleet with one lockstep worker (no grant → 1) degrades to lockstep.
	c.window = 1
	if opts.Window > 1 {
		c.window = opts.Window
		for _, cl := range c.clients {
			g := cl.Welcome().Window
			if g < 1 {
				g = 1
			}
			if g < c.window {
				c.window = g
			}
		}
	}
	if err := c.adopt(); err != nil {
		c.closeClients()
		return nil, err
	}
	starts := c.Positions()
	for _, o := range c.obs {
		if b, ok := o.(engine.BeginObserver); ok {
			b.Begin(cfg, starts, c.name)
		}
	}
	return c, nil
}

// adopt seeds the coordinator's per-shard mirrors from the workers' live
// state and metrics, so a coordinator joining a fleet mid-run (or at step
// zero — the same code path) continues the exact counters. The fetched
// JSON round-trips float64 bits exactly, so the mirrors stay bit-equal
// with what an uninterrupted coordinator would hold.
func (c *Coordinator) adopt() error {
	for i := range c.clients {
		addr := c.opts.Workers[c.assign[i]]
		var st wire.StateResponse
		if err := c.getJSON(addr, fmt.Sprintf("/shard/%d/state", i), &st); err != nil {
			return fmt.Errorf("cluster: shard %d state from %s: %w", i, addr, err)
		}
		var m wire.MetricsResponse
		if err := c.getJSON(addr, fmt.Sprintf("/shard/%d/metrics", i), &m); err != nil {
			return fmt.Errorf("cluster: shard %d metrics from %s: %w", i, addr, err)
		}
		if st.T != c.steps {
			return fmt.Errorf("cluster: shard %d moved to step %d during adoption (expected %d)", i, st.T, c.steps)
		}
		if len(st.Positions) != c.cfg.Servers() {
			return fmt.Errorf("cluster: shard %d has %d servers, expected %d", i, len(st.Positions), c.cfg.Servers())
		}
		c.pos[i] = toGeom(st.Positions)
		c.costs[i] = core.Cost{Move: st.Cost.Move, Serve: st.Cost.Serve}
		c.clamped[i] = st.Clamped
		c.requests[i] = m.Requests
	}
	return nil
}

func (c *Coordinator) streamPath(i, floor int) string {
	return fmt.Sprintf("/shard/%d/stream?floor=%d", i, floor)
}

func (c *Coordinator) dialOpts() streamclient.Options {
	return streamclient.Options{
		Dim:              c.cfg.Dim,
		Wire:             c.opts.Wire,
		Window:           c.opts.Window,
		MaxAttempts:      c.opts.MaxAttempts,
		BaseBackoff:      c.opts.BaseBackoff,
		MaxBackoff:       c.opts.MaxBackoff,
		HeartbeatEvery:   c.opts.Heartbeat,
		HeartbeatTimeout: 3 * c.opts.Heartbeat,
	}
}

// getJSON fetches one worker HTTP endpoint. The body is a network input
// like any frame: decoded strictly, so a worker speaking a drifted schema
// is an error instead of silently dropped fields.
func (c *Coordinator) getJSON(addr, path string, v any) error {
	data, err := httpGet(addr, path)
	if err != nil {
		return err
	}
	return wire.UnmarshalStrict(data, v)
}

// httpGet fetches path from a worker base address (host:port or URL).
func httpGet(addr, path string) ([]byte, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (c *Coordinator) closeClients() {
	for _, cl := range c.clients {
		if cl != nil {
			cl.Close()
		}
	}
}

// T returns the number of global steps fed so far.
func (c *Coordinator) T() int { return c.steps }

// Window returns the usable pipelined window: the minimum the workers
// granted at handshake (and opts.Window), floored at 1 (lockstep).
func (c *Coordinator) Window() int { return c.window }

// Algorithm returns the coordinator's reported name: the workers' per
// shard algorithm tagged with the shard count, exactly like shard.Router.
func (c *Coordinator) Algorithm() string { return c.name }

// Cost returns the fleet-wide accumulated cost: the sum over shards, in
// shard order (the same accumulation the in-process router performs).
func (c *Coordinator) Cost() core.Cost {
	var total core.Cost
	for _, cost := range c.costs {
		total = total.Add(cost)
	}
	return total
}

// Clamped returns the fleet-wide count of cap-enforced server-moves.
func (c *Coordinator) Clamped() int {
	n := 0
	for _, v := range c.clamped {
		n += v
	}
	return n
}

// Positions returns a copy of every server position, concatenated in
// shard order.
func (c *Coordinator) Positions() []geom.Point {
	out := make([]geom.Point, 0, c.cfg.Partition.Shards()*c.cfg.Servers())
	for _, fleet := range c.pos {
		for _, p := range fleet {
			out = append(out, p.Clone())
		}
	}
	return out
}

// Partition returns the shard layout the coordinator routes with.
func (c *Coordinator) Partition() core.Partition { return c.cfg.Partition }

// LastSteps returns each shard's share of the most recent global step.
func (c *Coordinator) LastSteps() []shard.StepStat {
	return append([]shard.StepStat(nil), c.last...)
}

// States returns every shard's live cumulative counters, mirroring
// shard.Router.States from the coordinator's ack-fed counters.
func (c *Coordinator) States() []shard.State {
	out := make([]shard.State, len(c.pos))
	for i := range c.pos {
		fleet := make([]geom.Point, len(c.pos[i]))
		for j, p := range c.pos[i] {
			fleet[j] = p.Clone()
		}
		out[i] = shard.State{
			Shard:     i,
			Servers:   len(c.pos[i]),
			Requests:  c.requests[i],
			Cost:      c.costs[i],
			Clamped:   c.clamped[i],
			Positions: fleet,
		}
	}
	return out
}

// Assignments returns the worker address currently serving each shard.
func (c *Coordinator) Assignments() []string {
	out := make([]string, len(c.assign))
	for i, w := range c.assign {
		out[i] = c.opts.Workers[w]
	}
	return out
}

// LastFailovers returns the rehoming events the most recent step applied,
// or nil.
func (c *Coordinator) LastFailovers() []wire.FailoverEvent {
	if len(c.failovers) == 0 {
		return nil
	}
	return append([]wire.FailoverEvent(nil), c.failovers...)
}

// Step routes one global step's batch to the shard workers and forwards
// each share concurrently (one frame per shard, including empty ones, so
// every shard session stays on the same step counter). A worker that died
// is failed over transparently — the shard is rehomed onto the next
// candidate worker, its last fsynced checkpoint restored, and the
// in-flight step reconciled through the welcome so it is neither lost nor
// double-fed. After the barrier the per-shard outcomes are merged into
// one StepInfo, bit-identical to the in-process router's.
//
// Errors are sticky, exactly like the router's: once any shard executed a
// step another shard refused (every candidate unreachable, or a lockstep
// violation), the fleet is out of sync and the coordinator refuses to
// compute from inconsistent state.
//
// Step is the lockstep form: submit one step and block for it. The
// service never calls it — it drives StepAsync/ResolveOldest at every
// window, lockstep included — but protocol.Backend requires it.
func (c *Coordinator) Step(requests []geom.Point) error {
	if err := c.StepAsync(requests); err != nil {
		return err
	}
	return c.ResolveOldest()
}

// StepAsync submits one global step — fanning its buckets out to every
// shard's worker as pipelined frames — without waiting for the acks. A
// submission failure on a shard's connection is recorded, not returned:
// the resolve repairs it through the failover path, exactly like a frame
// that died after the write. The batch must stay valid and unmodified
// until the step's ResolveOldest returns.
func (c *Coordinator) StepAsync(requests []geom.Point) error {
	if c.err != nil {
		return c.err
	}
	if c.finished {
		return engine.ErrFinished
	}
	if len(c.flights) >= c.window {
		return fmt.Errorf("cluster: pipeline window %d is full", c.window)
	}
	t := c.steps + len(c.flights)
	for i, v := range requests {
		if v.Dim() != c.cfg.Dim {
			return fmt.Errorf("cluster: request %d in step %d has dim %d, want %d", i, t, v.Dim(), c.cfg.Dim)
		}
		if !v.IsFinite() {
			return fmt.Errorf("cluster: request %d in step %d is not finite: %v", i, t, v)
		}
	}

	n := len(c.clients)
	f := &cflight{
		t:         t,
		reqs:      requests,
		buckets:   make([][]wire.Point, n),
		pends:     make([]*streamclient.Pending, n),
		sendErr:   make([]error, n),
		recovered: make([]*wire.StepResponse, n),
	}
	for _, v := range requests {
		i := c.cfg.Partition.ShardOfPoint(v)
		f.buckets[i] = append(f.buckets[i], wire.Point(v))
	}
	for i, cl := range c.clients {
		if cl != nil && cl.Err() == nil {
			p, err := cl.Step(f.buckets[i])
			if err != nil {
				f.sendErr[i] = err
			} else {
				f.pends[i] = p
			}
		} else if cl != nil {
			f.sendErr[i] = cl.Err()
		}
	}
	c.flights = append(c.flights, f)
	return nil
}

// ResolveOldest blocks for the oldest in-flight step's per-shard acks
// (running the failover reconciliation where a connection died), merges
// them into one StepInfo, advances the mirrors, and notifies the
// observers — everything a synchronous Step does after its barrier.
func (c *Coordinator) ResolveOldest() error {
	if c.err != nil {
		return c.err
	}
	if c.finished {
		return engine.ErrFinished
	}
	if len(c.flights) == 0 {
		return errors.New("cluster: no step in flight")
	}
	f := c.flights[0]
	t := f.t
	n := len(c.clients)
	acks := make([]shardAck, n)
	evs := make([][]wire.FailoverEvent, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acks[i], evs[i], errs[i] = c.resolveShard(i, f)
		}(i)
	}
	wg.Wait()
	copy(c.flights, c.flights[1:])
	c.flights = c.flights[:len(c.flights)-1]

	c.failovers = nil
	for _, e := range evs {
		c.failovers = append(c.failovers, e...)
	}
	for i, err := range errs {
		if err != nil {
			c.err = fmt.Errorf("cluster: step %d: shard %d: %w", t, i, err)
			return c.err
		}
	}

	// Merge in shard order, mirroring shard.Router.Step: identical values
	// in identical accumulation order keep every derived float bit-equal.
	requests := f.reqs
	buckets := f.buckets
	prev := make([]geom.Point, 0, len(requests))
	pos := make([]geom.Point, 0, len(requests))
	info := engine.StepInfo{T: t, Requests: requests}
	for i := range acks {
		moved := 0.0
		for j := range acks[i].positions {
			if d := geom.Dist(c.pos[i][j], acks[i].positions[j]); d > moved {
				moved = d
			}
		}
		c.last[i] = shard.StepStat{
			Routed:  len(buckets[i]),
			Cost:    acks[i].cost,
			Moved:   moved,
			Clamped: acks[i].clamped,
		}
		c.requests[i] += len(buckets[i])
		c.costs[i] = c.costs[i].Add(acks[i].cost)
		c.clamped[i] += acks[i].clamped
		prev = append(prev, c.pos[i]...)
		pos = append(pos, acks[i].positions...)
		info.Cost = info.Cost.Add(acks[i].cost)
		info.Clamped += acks[i].clamped
		if moved > info.Moved {
			info.Moved = moved
		}
	}
	info.Prev = prev
	info.Pos = pos
	for i := range acks {
		// Swap the per-shard double buffer: the outgoing positions become
		// the copy target for the next step's ack. Observers hold prev/pos
		// on loan (the engine contract) and must clone to retain.
		c.spare[i], c.pos[i] = c.pos[i], acks[i].positions
	}
	c.steps++
	if info.Moved > c.maxMove {
		c.maxMove = info.Moved
	}
	for _, o := range c.obs {
		o.Observe(info)
	}
	return nil
}

// resolveShard produces shard i's share of the flight being resolved: a
// recovery a previous failover already banked, the normal in-order ack,
// or — when the connection died — the full failover reconciliation. It
// touches only shard-i-owned state (including the later flights' shard-i
// entries), so the per-shard goroutines never collide.
func (c *Coordinator) resolveShard(i int, f *cflight) (shardAck, []wire.FailoverEvent, error) {
	if r := f.recovered[i]; r != nil {
		f.recovered[i] = nil
		sa, err := c.fromAck(i, f.t, *r)
		return sa, nil, err
	}
	var lastErr error
	if p := f.pends[i]; p != nil {
		ack, err := p.Wait()
		if err == nil {
			sa, ferr := c.fromAck(i, f.t, ack.StepResponse)
			p.Release()
			f.pends[i] = nil
			return sa, nil, ferr
		}
		p.Release()
		f.pends[i] = nil
		var we *wire.Error
		if errors.As(err, &we) {
			// The worker spoke: a typed refusal (bad payload, worker
			// shutting down mid-drain), not a dead connection. The step
			// did not execute anywhere; fail it without rehoming.
			return shardAck{}, nil, err
		}
		lastErr = err
	} else if f.sendErr[i] != nil {
		lastErr = f.sendErr[i]
		f.sendErr[i] = nil
	}
	return c.failoverShard(i, f, lastErr)
}

// failoverShard rehomes shard i after its connection died with the flight
// f (the oldest) unresolved: candidates are the assigned worker first (a
// restart is the cheapest recovery), then every other worker. Each
// candidate's welcome is reconciled against EVERY in-flight step for this
// shard — steps its restored checkpoint already executed are recovered
// from the welcome's ack ring, the rest are resent in order on the new
// connection — so a crash at any offset within the window neither loses
// nor double-feeds a step.
func (c *Coordinator) failoverShard(i int, f *cflight, lastErr error) (shardAck, []wire.FailoverEvent, error) {
	var events []wire.FailoverEvent
	from := c.opts.Workers[c.assign[i]]
	start := c.assign[i]
	nw := len(c.opts.Workers)
	attempts := 0
	t := f.t
	newest := c.flights[len(c.flights)-1].t
	for k := 0; k < nw; k++ {
		wi := (start + k) % nw
		addr := c.opts.Workers[wi]
		cl, err := streamclient.Dial(addr, c.streamPath(i, t), c.dialOpts())
		if err != nil {
			var ue *protocol.UnreachableError
			if errors.As(err, &ue) {
				attempts += ue.Attempts
				lastErr = ue.Err
				continue
			}
			// A reachable worker that rejected the handshake is a fatal
			// configuration problem, not an outage.
			return shardAck{}, events, err
		}
		w := cl.Welcome()
		// Checkpoint-before-ack bounds the restored step count: at least t
		// (the oldest unacked step cannot have been committed-and-acked
		// below it) and at most one past the newest in-flight step.
		if w.T < t || w.T > newest+1 {
			cl.Close()
			return shardAck{}, events, fmt.Errorf("worker %s is at step %d, coordinator expected %d..%d — pipeline window violated", addr, w.T, t, newest+1)
		}
		sa, retry, rerr := c.reconcile(i, cl, w)
		if rerr != nil {
			cl.Close()
			if retry {
				lastErr = rerr
				attempts++
				continue
			}
			return shardAck{}, events, rerr
		}
		c.clients[i].Close()
		c.clients[i], c.assign[i] = cl, wi
		events = append(events, wire.FailoverEvent{
			T: t, Shard: i, From: from, To: addr,
			RestoredT: w.T, Resent: w.T <= newest,
		})
		return sa, events, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no candidate workers")
	}
	return shardAck{}, events, &protocol.UnreachableError{
		Addr:     c.opts.Workers[(start+nw-1)%nw],
		Attempts: attempts,
		Err:      lastErr,
	}
}

// reconcile replays shard i's in-flight suffix against a freshly dialed
// candidate at step w.T: flights below w.T executed before the crash and
// their exact outcomes are recovered from the welcome's ring (the oldest
// is converted and returned, later ones are banked in recovered[] for
// their own resolves); flights at or above w.T never executed and are
// resent in order. The returned retry flag distinguishes a transport
// failure on the new connection (try the next candidate) from a
// reconciliation that can never succeed (missing or mismatched ring entry
// — fatal).
func (c *Coordinator) reconcile(i int, cl *streamclient.Client, w wire.WelcomeFrame) (shardAck, bool, error) {
	addr := c.opts.Workers[c.assign[i]] // only for error text; reassignment happens on success
	for _, fj := range c.flights {
		// Any pending from the dead connection (or an earlier failed
		// candidate) is void; dropping without Wait is safe and the resend
		// below replaces it.
		fj.pends[i] = nil
		fj.sendErr[i] = nil
		if fj.t >= w.T {
			p, serr := cl.Step(fj.buckets[i])
			if serr != nil {
				return shardAck{}, true, serr
			}
			fj.pends[i] = p
			continue
		}
		ls := ringEntry(w, fj.t)
		if ls == nil {
			return shardAck{}, false, fmt.Errorf("worker %s restored step %d but carries no recovery payload for step %d", addr, w.T, fj.t)
		}
		if ls.Batched != len(fj.buckets[i]) {
			return shardAck{}, false, fmt.Errorf("worker %s recovered step %d with %d requests, coordinator sent %d", addr, fj.t, ls.Batched, len(fj.buckets[i]))
		}
		fj.recovered[i] = &wire.StepResponse{
			T:         ls.T,
			Batched:   ls.Batched,
			Cost:      ls.Cost,
			Clamped:   ls.Clamped,
			Positions: ls.Positions,
		}
	}
	// The oldest flight's outcome: banked above (aliasing the welcome's
	// storage), or the ack of its resend (aliasing the pending's pooled
	// buffer — converted via fromAck, which deep-copies the positions,
	// BEFORE Release recycles that buffer).
	f0 := c.flights[0]
	if r := f0.recovered[i]; r != nil {
		f0.recovered[i] = nil
		sa, err := c.fromAck(i, f0.t, *r)
		return sa, false, err
	}
	p := f0.pends[i]
	ack, werr := p.Wait()
	if werr != nil {
		p.Release()
		f0.pends[i] = nil
		return shardAck{}, true, werr
	}
	sa, err := c.fromAck(i, f0.t, ack.StepResponse)
	p.Release()
	f0.pends[i] = nil
	return sa, false, err
}

// ringEntry finds the welcome's recovery payload for step t: the ring
// entry with that index (a lockstep worker's ring holds only its newest
// step).
func ringEntry(w wire.WelcomeFrame, t int) *wire.LastStep {
	for i := range w.Ring {
		if w.Ring[i].T == t {
			return &w.Ring[i]
		}
	}
	return nil
}

// fromAck validates one shard's step outcome and converts it to the
// coordinator's internal form. The acked positions are deep-copied into
// the shard's spare buffer: on the binary encoding resp.Positions aliases
// the client's pooled ack storage, which is recycled as soon as the
// caller Releases the pending, so sharing it (the old toGeom behavior)
// would let a later ack overwrite the retained mirror.
func (c *Coordinator) fromAck(i, t int, resp wire.StepResponse) (shardAck, error) {
	if resp.T != t {
		return shardAck{}, fmt.Errorf("worker acked step %d, coordinator sent %d", resp.T, t)
	}
	if len(resp.Positions) != len(c.pos[i]) {
		return shardAck{}, fmt.Errorf("worker acked %d positions for a %d-server shard", len(resp.Positions), len(c.pos[i]))
	}
	return shardAck{
		cost:      core.Cost{Move: resp.Cost.Move, Serve: resp.Cost.Serve},
		clamped:   resp.Clamped,
		positions: copyPositions(c.spare[i], resp.Positions),
	}, nil
}

// copyPositions copies wire points into dst's reusable point buffers,
// growing only what is missing, and returns the filled slice.
func copyPositions(dst []geom.Point, pts []wire.Point) []geom.Point {
	if cap(dst) < len(pts) {
		grown := make([]geom.Point, len(pts))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(pts)]
	for i, p := range pts {
		dst[i] = geom.CopyInto(dst[i], geom.Point(p))
	}
	return dst
}

// Snapshot fetches every shard's engine snapshot from its worker and
// packs them into a combined document with exactly shard.Router's shape,
// so a cluster run can be scaled back down into an in-process Restore.
// The service holds its lock across the fetches and no step is in flight,
// so the per-shard documents form one consistent cut at the same global
// step.
func (c *Coordinator) Snapshot() ([]byte, error) {
	if c.finished {
		return nil, shard.ErrSnapshotFinished
	}
	if c.err != nil {
		return nil, fmt.Errorf("cluster: cannot snapshot a failed coordinator: %w", c.err)
	}
	if len(c.flights) > 0 {
		// The workers are ahead of the resolved mirrors while steps are in
		// flight; a snapshot taken now would not be one consistent cut.
		return nil, fmt.Errorf("cluster: cannot snapshot with %d steps in flight", len(c.flights))
	}
	n := len(c.clients)
	docs := make([]json.RawMessage, n)
	ks := make([]int, n)
	for i := 0; i < n; i++ {
		data, err := httpGet(c.opts.Workers[c.assign[i]], fmt.Sprintf("/shard/%d/snapshot", i))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d snapshot: %w", i, err)
		}
		docs[i] = data
		ks[i] = len(c.pos[i])
	}
	return shard.PackSnapshot(c.cfg, c.steps, c.requests, ks, 0, docs)
}

// Finish closes every worker connection and returns the aggregated fleet
// result from the coordinator's mirrors. The workers themselves are NOT
// finished — they keep their sessions resumable (another coordinator may
// adopt them); shutting worker processes down is the operator's call.
func (c *Coordinator) Finish() *engine.Result {
	if c.finished {
		res := *c.res
		return &res
	}
	c.finished = true
	c.closeClients()
	agg := &engine.Result{Algorithm: c.name, Steps: c.steps, MaxMove: c.maxMove}
	for i := range c.costs {
		agg.Cost = agg.Cost.Add(c.costs[i])
		agg.Clamped += c.clamped[i]
		for _, p := range c.pos[i] {
			agg.Final = append(agg.Final, p.Clone())
		}
	}
	c.res = agg
	for _, o := range c.obs {
		if e, ok := o.(engine.EndObserver); ok {
			res := *agg
			e.End(&res)
		}
	}
	res := *agg
	return &res
}

// toGeom converts wire points to geometry points, sharing the freshly
// decoded storage.
func toGeom(pts []wire.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point(p)
	}
	return out
}

// NewService wires a coordinator into the full serving core: coalescing,
// bounded queue, Watch subscriptions, typed errors — protocol.Service in
// front of a forwarding backend. The service's observers see the merged
// fleet-wide StepInfo, so /metrics and /state report exactly what an
// in-process router service would.
func NewService(cfg core.Config, copts CoordinatorOptions, popts protocol.Options) (*protocol.Service, error) {
	return protocol.NewFromBackend(cfg, func(eopts engine.Options) (protocol.Backend, error) {
		return NewCoordinator(cfg, copts, eopts)
	}, popts)
}
