// Package wrap holds the benchmark's timing wrappers: they sit on
// interfaces the serving stack already accepts — protocol.Backend (with
// its optional surfaces) through protocol.NewFromBackend, and
// core.FleetAlgorithm through the algorithm factories — and record one
// span per call into a span.Recorder. No code of the stack changes.
//
// A wrapper must expose exactly the optional surfaces of what it wraps:
// the protocol layer probes PositionsInto, RegionBackend, ShardedBackend,
// PipelinedBackend and FailoverBackend by type assertion, so a wrapper
// that hid or invented one would make the traced run take another path
// than the untraced one.
package wrap

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/wire"

	"repro/perfbench/span"
)

// positionsInto is the protocol layer's optional in-place positions
// surface (unexported there; engine.Session implements it).
type positionsInto interface {
	PositionsInto([]geom.Point) []geom.Point
}

// Surfaces lists the optional protocol surfaces v implements, in a fixed
// order, so two values can be compared.
func Surfaces(v any) []string {
	var out []string
	if _, ok := v.(positionsInto); ok {
		out = append(out, "PositionsInto")
	}
	if _, ok := v.(protocol.RegionBackend); ok {
		out = append(out, "RegionBackend")
	}
	if _, ok := v.(protocol.ShardedBackend); ok {
		out = append(out, "ShardedBackend")
	}
	if _, ok := v.(protocol.PipelinedBackend); ok {
		out = append(out, "PipelinedBackend")
	}
	if _, ok := v.(protocol.FailoverBackend); ok {
		out = append(out, "FailoverBackend")
	}
	return out
}

// Steps is the step index a backend wrapper publishes for the algorithm
// wrappers underneath it, so their spans join the backend's step.
type Steps struct{ cur atomic.Int64 }

// Current returns the step being executed (or last executed).
func (s *Steps) Current() int64 { return s.cur.Load() }

// base times Step and forwards the Backend accessors.
type base struct {
	inner protocol.Backend
	rec   *span.Recorder
	name  string
	steps *Steps
	// lastEnd is when the latest timed backend call returned; busyEnd is
	// the latest accessor call after it. The protocol layer reads T,
	// positions and per-shard stats right after each step, so
	// [lastEnd, busyEnd] is the loop's post-step work on the backend,
	// recorded as a protocol.post span when the next call begins. Both
	// are touched only from the service's step loop.
	lastEnd, busyEnd int64
	lastStep         int64
}

// begin records the previous call's post-step span and stamps the start
// of the next backend call.
func (b *base) begin() int64 {
	if b.busyEnd > b.lastEnd {
		b.rec.Add(span.Span{Name: "protocol.post", Start: b.lastEnd, End: b.busyEnd, Parent: b.name, Frame: -1, Step: b.lastStep})
	}
	return span.Now()
}

// end records one timed backend call.
func (b *base) end(name string, start, t int64) {
	b.lastEnd = span.Now()
	b.lastStep = t
	b.rec.Add(span.Span{Name: name, Start: start, End: b.lastEnd, Frame: -1, Step: t})
}

func (b *base) Step(reqs []geom.Point) error {
	t := int64(b.inner.T())
	b.steps.cur.Store(t)
	start := b.begin()
	err := b.inner.Step(reqs)
	b.end(b.name, start, t)
	return err
}

func (b *base) T() int {
	b.mark()
	return b.inner.T()
}
func (b *base) Algorithm() string         { return b.inner.Algorithm() }
func (b *base) Cost() core.Cost           { return b.inner.Cost() }
func (b *base) Clamped() int              { return b.inner.Clamped() }
func (b *base) Positions() []geom.Point   { b.mark(); return b.inner.Positions() }
func (b *base) Snapshot() ([]byte, error) { return b.inner.Snapshot() }
func (b *base) Finish() *engine.Result    { return b.inner.Finish() }

func (b *base) mark() { b.busyEnd = span.Now() }

// Session wraps an engine session: Backend plus PositionsInto.
type Session struct{ base }

// PositionsInto forwards the in-place positions copy.
func (s *Session) PositionsInto(dst []geom.Point) []geom.Point {
	s.mark()
	return s.inner.(positionsInto).PositionsInto(dst)
}

// region forwards the RegionBackend accessors.
type region struct{ base }

func (r *region) Partition() core.Partition { return r.inner.(protocol.RegionBackend).Partition() }
func (r *region) LastSteps() []shard.StepStat {
	r.mark()
	return r.inner.(protocol.RegionBackend).LastSteps()
}
func (r *region) States() []shard.State { return r.inner.(protocol.RegionBackend).States() }

// Router wraps a shard router: RegionBackend plus ShardedBackend.
type Router struct{ region }

// SetRebalancer forwards the policy installation.
func (r *Router) SetRebalancer(rb shard.Rebalancer) {
	r.inner.(protocol.ShardedBackend).SetRebalancer(rb)
}

// LastRebalance forwards the most recent migration.
func (r *Router) LastRebalance() *shard.RebalanceEvent {
	r.mark()
	return r.inner.(protocol.ShardedBackend).LastRebalance()
}

// Coordinator wraps a cluster coordinator: RegionBackend plus
// PipelinedBackend and FailoverBackend. StepAsync and ResolveOldest are
// timed as cluster.submit and cluster.resolve; the in-flight depth seen
// at each submission and the failovers each resolve applied are counted.
type Coordinator struct {
	region
	inflight    int
	inflightSum atomic.Int64
	submits     atomic.Int64
	failovers   atomic.Int64
}

// StepAsync times one submission.
func (c *Coordinator) StepAsync(reqs []geom.Point) error {
	t := int64(c.inner.T() + c.inflight)
	c.inflightSum.Add(int64(c.inflight))
	c.submits.Add(1)
	start := c.begin()
	err := c.inner.(protocol.PipelinedBackend).StepAsync(reqs)
	c.end("cluster.submit", start, t)
	if err == nil {
		c.inflight++
	}
	return err
}

// ResolveOldest times one resolve.
func (c *Coordinator) ResolveOldest() error {
	t := int64(c.inner.T())
	c.steps.cur.Store(t)
	start := c.begin()
	err := c.inner.(protocol.PipelinedBackend).ResolveOldest()
	c.end("cluster.resolve", start, t)
	if c.inflight > 0 {
		c.inflight--
	}
	return err
}

// Window forwards the usable pipelined window.
func (c *Coordinator) Window() int { return c.inner.(protocol.PipelinedBackend).Window() }

// Assignments forwards the live shard→worker map.
func (c *Coordinator) Assignments() []string {
	return c.inner.(protocol.FailoverBackend).Assignments()
}

// LastFailovers forwards the rehoming events and counts them.
func (c *Coordinator) LastFailovers() []wire.FailoverEvent {
	c.mark()
	evs := c.inner.(protocol.FailoverBackend).LastFailovers()
	c.failovers.Add(int64(len(evs)))
	return evs
}

// InflightMean is the mean number of steps already in flight when a new
// one was submitted.
func (c *Coordinator) InflightMean() float64 {
	n := c.submits.Load()
	if n == 0 {
		return 0
	}
	return float64(c.inflightSum.Load()) / float64(n)
}

// Failovers counts the failover events the service read.
func (c *Coordinator) Failovers() int64 { return c.failovers.Load() }

// Backend wraps inner with the wrapper whose surfaces match inner's
// exactly, timing each step under the named span. Steps publishes the
// step index for algorithm wrappers below. A surface combination no
// wrapper covers is an error, never a silently different path.
func Backend(inner protocol.Backend, rec *span.Recorder, name string, steps *Steps) (protocol.Backend, error) {
	b := base{inner: inner, rec: rec, name: name, steps: steps}
	var out protocol.Backend
	switch got := strings.Join(Surfaces(inner), "+"); got {
	case "PositionsInto":
		out = &Session{base: b}
	case "RegionBackend+ShardedBackend":
		out = &Router{region: region{base: b}}
	case "RegionBackend+PipelinedBackend+FailoverBackend":
		out = &Coordinator{region: region{base: b}}
	default:
		return nil, fmt.Errorf("wrap: no timing wrapper for a %T with surfaces [%s]", inner, got)
	}
	return out, nil
}

// Alg is a timed fleet algorithm. Its spans are named by the factory and
// carry the step index the enclosing backend wrapper publishes, or the
// algorithm's own Move count when no backend wrapper is above it.
type Alg struct {
	inner  core.FleetAlgorithm
	rec    *span.Recorder
	name   string
	parent string
	steps  *Steps
	moves  int64
}

// Name forwards the algorithm's name.
func (a *Alg) Name() string { return a.inner.Name() }

// Reset forwards the reset.
func (a *Alg) Reset(cfg core.Config, starts []geom.Point) { a.inner.Reset(cfg, starts) }

// Move times one move.
func (a *Alg) Move(reqs []geom.Point) []geom.Point {
	t := a.moves
	if a.steps != nil {
		t = a.steps.Current()
	}
	a.moves++
	start := span.Now()
	out := a.inner.Move(reqs)
	a.rec.Add(span.Span{Name: a.name, Start: start, End: span.Now(), Parent: a.parent, Frame: -1, Step: t})
	return out
}

// snapAlg adds the snapshot surface.
type snapAlg struct{ *Alg }

func (a snapAlg) SnapshotState() ([]byte, error) {
	return a.inner.(core.Snapshotter).SnapshotState()
}
func (a snapAlg) RestoreState(data []byte) error {
	return a.inner.(core.Snapshotter).RestoreState(data)
}

// sizedSnapAlg adds the fixed-fleet-size surface on top.
type sizedSnapAlg struct{ snapAlg }

func (a sizedSnapAlg) FleetSize() int { return a.inner.(core.FleetSizer).FleetSize() }

// AlgSurfaces lists the optional algorithm surfaces v implements.
func AlgSurfaces(v any) []string {
	var out []string
	if _, ok := v.(core.Snapshotter); ok {
		out = append(out, "Snapshotter")
	}
	if _, ok := v.(core.FleetSizer); ok {
		out = append(out, "FleetSizer")
	}
	return out
}

// Algs wraps an algorithm factory: every instance it builds is timed
// under the named span, as a child of the parent span's step. steps may
// be nil (see Alg).
func Algs(newAlg func() core.FleetAlgorithm, rec *span.Recorder, name, parent string, steps *Steps) func() core.FleetAlgorithm {
	return func() core.FleetAlgorithm {
		inner := newAlg()
		a := &Alg{inner: inner, rec: rec, name: name, parent: parent, steps: steps}
		switch got := strings.Join(AlgSurfaces(inner), "+"); got {
		case "Snapshotter":
			return snapAlg{a}
		case "Snapshotter+FleetSizer":
			return sizedSnapAlg{snapAlg{a}}
		default:
			panic(fmt.Sprintf("wrap: no timing wrapper for a %T with surfaces [%s]", inner, got))
		}
	}
}
