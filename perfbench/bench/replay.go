package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/workload"
	"repro/internal/xrand"

	"repro/perfbench/proc"
	"repro/perfbench/span"
	"repro/perfbench/wrap"
)

// The replay workload's shape: the lab's in-process cell over a 4-shard
// router with 4 MtC-k servers per shard, fed a zipf instance with 32
// requests per step in dimension 2.
var replayCfg = core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 4, Partition: core.UniformPartition(4, 25)}

const (
	replayRequests = 32
	// replaySteps is the generated instance length; longer runs cycle
	// through it again (the service keeps its state, so a cycle is new
	// work, not a replay of cached results).
	replaySteps = 16384
	// replayWarm steps run before timing, so the rebalancer's load window
	// fills and lazy allocations settle.
	replayWarm = 1000
	// replayCostSteps is where cost_per_request is read: the objective is
	// deterministic for a given prefix, so every run, fast or slow, reads
	// it after the same steps — the whole instance, every layout once.
	replayCostSteps = replaySteps
	replaySpan      = 5.0
)

// segments is how many independently drawn layouts (zipf sites, cluster
// centres) an instance strings together. One layout's cost and speed
// depend on where it falls against the shard boundaries, by tens of
// percent from seed to seed; a run over many layouts measures the
// system, not the luck of one draw.
const segments = 64

func replayInstance(seed uint64) *core.Instance {
	g := workload.WithRequests(workload.Zipf{}, replayRequests)
	base := core.Config{Dim: replayCfg.Dim, D: replayCfg.D, M: replayCfg.M, Delta: replayCfg.Delta}
	return segmented(g, seed, 1, base, replaySteps)
}

// segmented generates T steps as segments independently drawn from g,
// each from its own stream of seed.
func segmented(g workload.Generator, seed, stream uint64, base core.Config, T int) *core.Instance {
	in := &core.Instance{}
	for i := 0; i < segments; i++ {
		seg := g.Generate(xrand.NewStream(seed, stream<<8|uint64(i)), base, T/segments)
		in.Config, in.Start = seg.Config, seg.Start
		in.Steps = append(in.Steps, seg.Steps...)
	}
	return in
}

func replayAlg() core.FleetAlgorithm { return multi.NewMtCK() }

// newReplayService builds the service the lab's in-process cell builds.
// With a recorder, the router and its algorithms are wrapped and the
// service is opened through NewFromBackend, which is what NewSharded
// does with the bare router.
func newReplayService(rec *span.Recorder) (*protocol.Service, error) {
	opts := protocol.Options{NoCoalesce: true, QueueLimit: 8, Rebalancer: &shard.Threshold{}, Mode: engine.Clamp}
	starts := shard.Starts(replayCfg, replaySpan)
	if rec == nil {
		return protocol.NewSharded(replayCfg, starts, replayAlg, opts)
	}
	steps := &wrap.Steps{}
	newAlg := wrap.Algs(replayAlg, rec, "multi.move", "shard.step", steps)
	return protocol.NewFromBackend(replayCfg, func(eopts engine.Options) (protocol.Backend, error) {
		r, err := shard.New(replayCfg, starts, newAlg, eopts)
		if err != nil {
			return nil, err
		}
		return wrap.Backend(r, rec, "shard.step", steps)
	}, opts)
}

// replayPass is one set-up-and-measure of the replay workload.
type replayPass struct {
	setupS, genS float64
	// lat and late are per timed submission, in ns: Submit→ack, and the
	// gap between the previous ack and this Submit.
	lat, late  []float64
	timedS     float64
	submitted  int // every step fed, warm-up included
	rebalances int // migrations in the timed window
	routed     []int
	metrics    protocol.MetricsSnapshot
	state      protocol.StateSnapshot
	// costAt is the metrics snapshot after replayCostSteps steps.
	costAt    protocol.MetricsSnapshot
	before    proc.Mark
	after     proc.Mark
	peakRSSKB int64
	// Traced passes only: the generator's submit spans and everything
	// the wrappers recorded.
	spans []span.Span
}

// replayOnce sets the workload up (instance, service, warm-up) and runs
// the timed loop for seconds; the service is closed before it returns.
func replayOnce(seed uint64, seconds float64, rec *span.Recorder) (*replayPass, *core.Instance, error) {
	p := &replayPass{}
	start := time.Now()
	in := replayInstance(seed)
	p.genS = since(start)
	svc, err := newReplayService(rec)
	if err != nil {
		return nil, nil, err
	}
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := svc.Watch(ctx)

	// submit feeds one step and consumes its Watch event in lockstep, as
	// the lab cell does: with one event outstanding the subscriber buffer
	// never overflows, so the rebalance count is exact.
	rebalances := 0
	submit := func() (protocol.Ack, error) {
		ack, err := svc.Submit(in.Steps[p.submitted%len(in.Steps)].Requests)
		if err != nil {
			return ack, fmt.Errorf("replay: step %d: %w", p.submitted, err)
		}
		p.submitted++
		for ev := range events {
			if ev.Rebalance != nil {
				rebalances++
			}
			if ev.T >= ack.T {
				break
			}
		}
		return ack, nil
	}
	for i := 0; i < replayWarm; i++ {
		ack, err := submit()
		if err != nil {
			return nil, nil, err
		}
		ack.Release()
	}
	p.setupS = since(start)

	rebalances = 0
	p.routed = make([]int, replayCfg.Partition.Shards())
	p.before = proc.TakeMark()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	t0 := time.Now()
	prevEnd := t0
	for frame := int64(0); ; frame++ {
		s := time.Now()
		if !s.Before(deadline) && p.submitted >= replayCostSteps {
			break
		}
		ack, err := submit()
		e := time.Now()
		if err != nil {
			return nil, nil, err
		}
		if p.submitted == replayCostSteps {
			p.costAt = svc.Metrics()
		}
		p.lat = append(p.lat, float64(e.Sub(s)))
		p.late = append(p.late, float64(s.Sub(prevEnd)))
		prevEnd = time.Now()
		for i, st := range ack.Shards {
			p.routed[i] += st.Routed
		}
		if rec != nil {
			rec.Add(span.Span{Name: "protocol.submit", Start: s.UnixNano(), End: e.UnixNano(), Frame: frame, Step: int64(ack.T)})
		}
		ack.Release()
	}
	p.timedS = since(t0)
	p.after = proc.TakeMark()
	p.rebalances = rebalances
	if p.peakRSSKB, err = proc.PeakRSSKB("self"); err != nil {
		return nil, nil, err
	}
	p.metrics = svc.Metrics()
	p.state = svc.State()
	if err := svc.Close(); err != nil {
		return nil, nil, err
	}
	p.spans = rec.Spans()
	return p, in, nil
}

// checkReplay is the replay correctness gate: each pass's final step
// count, request count and costs must equal, float for float, a plain
// router replay of the same steps with the same rebalancer. Every pass
// replays a prefix of the same instance from a fresh start, so one plain
// replay to the longest prefix checks them all. The metrics observer sums
// cost in step order and the router per shard, so each is compared with
// its plain counterpart.
func checkReplay(in *core.Instance, passes ...*replayPass) error {
	m := &engine.Metrics{}
	r, err := shard.New(replayCfg, shard.Starts(replayCfg, replaySpan), replayAlg,
		engine.Options{Mode: engine.Clamp, Observers: []engine.Observer{m}})
	if err != nil {
		return err
	}
	r.SetRebalancer(&shard.Threshold{})
	byLen := append([]*replayPass(nil), passes...)
	sort.Slice(byLen, func(i, j int) bool { return byLen[i].submitted < byLen[j].submitted })
	var costAt *engine.Metrics
	for _, p := range byLen {
		for r.T() < p.submitted {
			if err := r.Step(in.Steps[r.T()%len(in.Steps)].Requests); err != nil {
				return fmt.Errorf("replay gate: plain router step %d: %w", r.T(), err)
			}
			if r.T() == replayCostSteps {
				snap := *m
				costAt = &snap
			}
		}
		switch {
		case m.Steps != p.metrics.Steps || r.T() != p.state.T:
			return fmt.Errorf("replay gate: service ran %d steps, plain router %d", p.metrics.Steps, m.Steps)
		case m.Requests != p.metrics.Requests:
			return fmt.Errorf("replay gate: service counted %d requests, plain router %d", p.metrics.Requests, m.Requests)
		case m.Cost != p.metrics.Cost:
			return fmt.Errorf("replay gate: service metrics cost %+v, plain router %+v", p.metrics.Cost, m.Cost)
		case r.Cost() != p.state.Cost:
			return fmt.Errorf("replay gate: service state cost %+v, plain router %+v", p.state.Cost, r.Cost())
		}
	}
	for _, p := range passes {
		if p.costAt.Steps == 0 {
			continue
		}
		if costAt == nil || p.costAt.Steps != costAt.Steps || p.costAt.Requests != costAt.Requests || p.costAt.Cost != costAt.Cost {
			return fmt.Errorf("replay gate: service cost after %d steps %+v, plain router %+v", replayCostSteps, p.costAt, costAt)
		}
	}
	return nil
}

// measureReplay runs gated replay measurements of seconds each, with or
// without the wrappers.
func measureReplay(seed uint64, seconds float64, traced bool, n int) ([]*replayPass, error) {
	var passes []*replayPass
	var in *core.Instance
	for i := 0; i < n; i++ {
		var rec *span.Recorder
		if traced {
			rec = &span.Recorder{}
		}
		p, inst, err := replayOnce(seed, seconds, rec)
		if err != nil {
			return nil, err
		}
		passes, in = append(passes, p), inst
	}
	return passes, checkReplay(in, passes...)
}

// replayTrials is how many independent set-ups an untraced run measures,
// each for an equal share of the seconds; the report pools their
// latencies and takes the median of their other values, which shrugs off
// a trial that a scheduling or GC hiccup slowed.
const replayTrials = 5

func runReplay(r run, traced bool) (*result, error) {
	res := &result{}
	if traced {
		plain, err := measureReplay(r.seed, float64(r.seconds), false, 1)
		if err != nil {
			return nil, err
		}
		p, err := measureReplay(r.seed, float64(r.seconds), true, 1)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = int64(len(p[0].lat)), 0
		res.layer = replayLayers(r.seed, p[0], plain[0], res)
		return res, nil
	}
	passes, err := measureReplay(r.seed, float64(r.seconds)/replayTrials, false, replayTrials)
	if err != nil {
		return nil, err
	}
	var setup, rate, rss, lat []float64
	for i, p := range passes {
		lat = append(lat, p.lat...)
		setup = append(setup, p.setupS)
		rate = append(rate, float64(len(p.lat))/p.timedS)
		rss = append(rss, float64(p.peakRSSKB)/1024)
		res.note("replay trial %d: %d steps (+%d warm-up) in %.2fs: %.0f batches/s, p50 %.3fms p99 %.3fms, %d rebalances; gate: cost %v equals a plain router replay",
			i, len(p.lat), replayWarm, p.timedS, rate[i], durMS(q(p.lat, 0.5)), durMS(q(p.lat, 0.99)), p.rebalances, p.state.Cost)
	}
	p50, p99, n, err := latencyStats(lat)
	if err != nil {
		return nil, err
	}
	res.attempted = int64(n)
	res.unbounded("batches_per_s", q(rate, 0.5), "1/s", "median over trials")
	res.unbounded("ack_p50_ms", durMS(p50), "ms", fmt.Sprintf("over %d samples", n))
	res.unbounded("ack_p99_ms", durMS(p99), "ms", fmt.Sprintf("over %d samples", n))
	res.unbounded("fail_frac", 0, "ratio", fmt.Sprintf("0 of %d batches throttled, refused or errored", n))
	res.e2e = map[string]metric{
		"setup_s":          {q(setup, 0.5), "s"},
		"cost_per_request": {passes[0].costAt.Cost.Total() / float64(passes[0].costAt.Requests), "cost"},
		"peak_rss_mb":      {q(rss, 0.5), "MiB"},
	}
	res.note("replay: %d trials; latency percentiles over all %d samples, other values are trial medians", replayTrials, n)
	return res, nil
}
