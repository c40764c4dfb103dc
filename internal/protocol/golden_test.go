package protocol

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/shard"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// serviceGoldens pins each golden service's digest (see
// TestServiceGoldens). Float output is pinned on linux/amd64 only: arm64
// may contract a multiply-add into one FMA and round differently.
var serviceGoldens = map[string]uint64{
	"engine-mtc":         0x45533bec2ccf6177,
	"router-mtck":        0x834b6f4f9c5271f4,
	"engine-groupcommit": 0x7c218266d003964a,
	"engine-window":      0x4dc034894a541d81,
}

// goldenHash folds a service's observable outputs into an FNV-64a hash.
type goldenHash struct {
	t   *testing.T
	h   hash.Hash64
	buf [8]byte
}

func (g *goldenHash) u(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHash) i(v int)          { g.u(uint64(int64(v))) }
func (g *goldenHash) f(x float64)      { g.u(math.Float64bits(x)) }
func (g *goldenHash) cost(c core.Cost) { g.f(c.Move); g.f(c.Serve) }

func (g *goldenHash) points(pts []geom.Point) {
	g.i(len(pts))
	for _, p := range pts {
		g.i(len(p))
		for _, x := range p {
			g.f(x)
		}
	}
}

// doc folds a JSON document, length first. encoding/json writes every
// float64 in its shortest exact form, so equal bytes mean equal bits.
func (g *goldenHash) doc(data []byte) {
	g.i(len(data))
	g.h.Write(data)
}

func (g *goldenHash) json(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		g.t.Fatal(err)
	}
	g.doc(data)
}

func (g *goldenHash) ack(a Ack) {
	g.i(a.T)
	g.i(a.Accepted)
	g.i(a.Batched)
	g.cost(a.Cost)
	g.points(a.Positions)
	g.i(a.Clamped)
	g.i(len(a.Shards))
	for _, sh := range a.Shards {
		g.i(sh.Routed)
		g.cost(sh.Cost)
		g.f(sh.Moved)
		g.i(sh.Clamped)
	}
}

// event folds one Watch event. QueueDepth is left out: it is a sample of
// the queue at publish time, not an output of the step.
func (g *goldenHash) event(ev MetricsEvent) {
	if ev.Dropped != 0 {
		g.t.Fatalf("event for step %d reports %d dropped events", ev.T, ev.Dropped)
	}
	g.i(ev.T)
	g.i(ev.Batched)
	g.cost(ev.StepCost)
	g.i(ev.Steps)
	g.i(ev.Requests)
	g.cost(ev.Cost)
	g.f(ev.AvgStepCost)
	g.u(uint64(ev.Rejected))
	g.json(ev.Rebalance)
	g.json(ev.Failovers)
}

// pipelinedSession is a PipelinedBackend over an engine session:
// StepAsync queues the batch and ResolveOldest steps the oldest queued
// one, so a windowed service's output can be pinned without a cluster.
type pipelinedSession struct {
	*engine.Session
	queued [][]geom.Point
}

func (p *pipelinedSession) StepAsync(reqs []geom.Point) error {
	p.queued = append(p.queued, reqs)
	return nil
}

func (p *pipelinedSession) ResolveOldest() error {
	reqs := p.queued[0]
	p.queued = p.queued[1:]
	return p.Session.Step(reqs)
}

func (p *pipelinedSession) Window() int { return 4 }

// goldenSteps draws a seeded instance's request batches.
func goldenSteps(g workload.Generator, seed uint64, cfg core.Config, T int) [][]geom.Point {
	in := g.Generate(xrand.New(seed), cfg, T)
	out := make([][]geom.Point, len(in.Steps))
	for t, st := range in.Steps {
		out[t] = st.Requests
	}
	return out
}

// nextEvent reads one Watch event, failing t if none arrives in time.
func nextEvent(t *testing.T, ch <-chan MetricsEvent) MetricsEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch closed early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no watch event within 10s")
	}
	return MetricsEvent{}
}

// feedGolden drives steps through svc and folds every ack and Watch event
// into g. With pipelined set it enqueues rounds of WatchBuffer batches
// before waiting on any of them; otherwise it submits one batch at a
// time. Each round's events are read before the next round is enqueued,
// so at most WatchBuffer events are ever unread and none is dropped.
func feedGolden(t *testing.T, svc *Service, ch <-chan MetricsEvent, steps [][]geom.Point, pipelined bool, g *goldenHash) {
	t.Helper()
	round := 1
	if pipelined {
		round = WatchBuffer
	}
	for lo := 0; lo < len(steps); lo += round {
		hi := min(lo+round, len(steps))
		pends := make([]*Pending, 0, hi-lo)
		for _, reqs := range steps[lo:hi] {
			p, err := svc.Enqueue(reqs)
			if err != nil {
				t.Fatal(err)
			}
			pends = append(pends, p)
		}
		for _, p := range pends {
			ack, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			g.ack(ack)
			ack.Release()
			p.Release()
		}
		for range pends {
			g.event(nextEvent(t, ch))
		}
	}
}

// submitGolden is feedGolden's lockstep form: Submit, then read the
// step's event.
func submitGolden(t *testing.T, svc *Service, ch <-chan MetricsEvent, steps [][]geom.Point, g *goldenHash) {
	t.Helper()
	for _, reqs := range steps {
		ack, err := svc.Submit(reqs)
		if err != nil {
			t.Fatal(err)
		}
		g.ack(ack)
		ack.Release()
		g.event(nextEvent(t, ch))
	}
}

// finishGolden folds the final Metrics and State, closes the service,
// and folds the session, metrics, moves and ring of its final checkpoint
// when it writes one.
func finishGolden(t *testing.T, svc *Service, ckpt string, g *goldenHash) {
	t.Helper()
	g.json(svc.Metrics())
	g.json(svc.State())
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ckpt == "" {
		return
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"session", "metrics", "moves", "ring"} {
		g.doc(doc[key])
	}
}

// TestServiceGoldens runs four seeded services through the serving core
// and checks that every ack, every Watch event, the final metrics and
// state, and the final checkpoint are unchanged bit for bit:
//
//   - engine-mtc: a k=1 MtC engine service driven lockstep by Submit;
//   - router-mtck: a 4-shard × k=2 MtC-k router with a Threshold
//     rebalancer in Clamp mode, driven by Submit;
//   - engine-groupcommit: a k=2 MtC-k engine service with CommitEvery 4,
//     AckRing 4 and NoCoalesce, fed 64 pipelined Enqueues (its ack ring
//     is folded too);
//   - engine-window: a Window 4 service over pipelinedSession, fed the
//     same way.
//
// After a deliberate change to a service's output, replace the digest
// with the one the failure message prints.
func TestServiceGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	check := func(name string, run func(t *testing.T, g *goldenHash)) {
		t.Run(name, func(t *testing.T) {
			g := &goldenHash{t: t, h: fnv.New64a()}
			run(t, g)
			if got, want := g.h.Sum64(), serviceGoldens[name]; got != want {
				t.Errorf("%q: %#016x, // want %#016x", name, got, want)
			}
		})
	}

	check("engine-mtc", func(t *testing.T, g *goldenHash) {
		cfg := testConfig(1)
		svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		ch := svc.Watch(context.Background())
		submitGolden(t, svc, ch, goldenSteps(workload.Hotspot{Requests: 2}, 11, cfg, 96), g)
		finishGolden(t, svc, "", g)
	})

	check("router-mtck", func(t *testing.T, g *goldenHash) {
		cfg := testConfig(2)
		cfg.Partition = core.UniformPartition(4, 20)
		svc, err := NewSharded(cfg, shard.Starts(cfg, 5),
			func() core.FleetAlgorithm { return multi.NewMtCK() },
			Options{Mode: engine.Clamp, Rebalancer: &shard.Threshold{WindowSteps: 8}})
		if err != nil {
			t.Fatal(err)
		}
		ch := svc.Watch(context.Background())
		steps := goldenSteps(workload.Hotspot{Half: 20, Requests: 5}, 12, cfg, 128)
		submitGolden(t, svc, ch, steps, g)
		finishGolden(t, svc, "", g)
	})

	check("engine-groupcommit", func(t *testing.T, g *goldenHash) {
		cfg := testConfig(2)
		path := filepath.Join(t.TempDir(), "golden.ckpt")
		svc, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), Options{
			CheckpointPath: path, CommitEvery: 4, AckRing: 4, NoCoalesce: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ch := svc.Watch(context.Background())
		feedGolden(t, svc, ch, goldenSteps(workload.Clusters{Requests: 3}, 13, cfg, 64), true, g)
		for _, ls := range svc.RecentSteps() {
			g.i(ls.T)
			g.i(ls.Batched)
			g.cost(ls.Cost)
			g.i(ls.Clamped)
			g.points(ls.Positions)
		}
		finishGolden(t, svc, path, g)
	})

	check("engine-window", func(t *testing.T, g *goldenHash) {
		cfg := testConfig(2)
		svc, err := NewFromBackend(cfg, func(eopts engine.Options) (Backend, error) {
			sess, err := engine.NewSession(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), eopts)
			if err != nil {
				return nil, err
			}
			return &pipelinedSession{Session: sess}, nil
		}, Options{Window: 4, NoCoalesce: true})
		if err != nil {
			t.Fatal(err)
		}
		ch := svc.Watch(context.Background())
		feedGolden(t, svc, ch, goldenSteps(workload.Zipf{Requests: 3}, 14, cfg, 64), true, g)
		finishGolden(t, svc, "", g)
	})
}
