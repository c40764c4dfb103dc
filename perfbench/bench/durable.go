package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/workload"

	"repro/perfbench/proc"
	"repro/perfbench/span"
)

// The durable workload's shape: one stream keeps 16 frames of 8 clusters
// requests in flight against the host's durable wiring, a coordinator
// (window 8) over two workers, each hosting one of 2 shards × k=2 MtC-k
// with group commit every 8.
const (
	durableInflight  = 16
	durableFrameReqs = 8
	durablePool      = 1 << 15 // generated frames, cycled
	// durableWarm frames run before timing: they open the workers' shard
	// sessions and write their first checkpoints (about 23 steps, three
	// group commits). A longer warm-up adds only closed-loop time to
	// setup_s, and closed-loop time follows the machine's speed: at 4000
	// frames the warm-up made up most of setup_s, which then ranged from
	// 0.7 to 1.8 s over five runs.
	durableWarm = 200
)

// durableFrames is trial's frame pool: stream 3+4·trial of seed, so the
// trials of one run replay different layouts and their median does not
// hang on one draw (streams 1 and 2 feed replay and ingest).
func durableFrames(seed uint64, trial int) [][]wire.Point {
	g := workload.WithRequests(workload.Clusters{}, durableFrameReqs)
	return toFrames(segmented(g, seed, uint64(3+4*trial), core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5}, durablePool))
}

// durablePass is one set-up-and-measure of the durable workload.
type durablePass struct {
	setupS, genS float64
	timedS       float64
	recs         []frameRec
	samples      []wire.AckFrame
	frames       [][]wire.Point
	sent         int
	throttles    int64
	steps        int
	metrics      wire.MetricsResponse
	stats        proc.Stats
	ckptDir      string
	ckptBytes    int
	spans        []span.Span
}

func (p *durablePass) next() []wire.Point {
	f := p.frames[p.sent%len(p.frames)]
	p.sent++
	return f
}

// durableOnce starts a fresh cluster, warms it up, runs the closed loop
// over trial's frames for seconds, and gates the run.
func durableOnce(r run, tag string, trial int, traced bool, seconds float64) (*durablePass, error) {
	p := &durablePass{ckptDir: filepath.Join(r.work, tag+".ckpt")}
	start := time.Now()
	p.frames = durableFrames(r.seed, trial)
	p.genS = since(start)
	if err := os.MkdirAll(p.ckptDir, 0o755); err != nil {
		return nil, err
	}
	host, err := startHost(r.hostBin, r.work, tag, traced, "-mode", "durable", "-ckpt-dir", p.ckptDir)
	if err != nil {
		return nil, err
	}
	stream, err := openStream(host.url, 2, durableInflight)
	if err != nil {
		host.kill()
		return nil, err
	}
	abort := func() {
		_ = stream.close()
		host.kill()
	}
	for i := 0; i < durableWarm; i++ {
		if err := stream.send(p.next(), -1, 0); err != nil {
			abort()
			return nil, err
		}
	}
	if !stream.waitAcked(int64(p.sent), time.Minute) {
		abort()
		return nil, fmt.Errorf("durable warm-up not acked within a minute")
	}
	p.setupS = since(start)

	if err := host.mark(true); err != nil {
		abort()
		return nil, err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if err := stream.send(p.next(), 0, 0); err != nil {
			abort()
			return nil, err
		}
	}
	if !stream.waitAcked(int64(p.sent), time.Minute) {
		abort()
		return nil, fmt.Errorf("durable frames not acked within a minute")
	}
	p.timedS = since(t0)
	if err := host.mark(false); err != nil {
		abort()
		return nil, err
	}

	streamErr := stream.close()
	p.recs, p.samples, p.throttles = stream.recs, stream.samples, stream.client.Throttles()
	var st wire.StateResponse
	if err := firstErr(streamErr, getJSON(host.url+"/metrics", &p.metrics), getJSON(host.url+"/state", &st)); err != nil {
		host.kill()
		return nil, err
	}
	if err := stream.tally.reconcile(p.metrics); err != nil {
		host.kill()
		return nil, err
	}
	if p.stats, err = host.stop(); err != nil {
		return nil, err
	}
	// No failover: each shard's worker stream was dialled exactly once and
	// every shard still sits on the worker it started on.
	if p.stats.StreamDials != 2 || p.stats.Failovers != 0 || len(st.Workers) != 2 || st.Workers[0] == st.Workers[1] {
		return nil, fmt.Errorf("durable gate: failover happened (%d worker stream dials, %d failover events, assignment %v)", p.stats.StreamDials, p.stats.Failovers, st.Workers)
	}
	if len(p.stats.Marks) != 2 {
		return nil, fmt.Errorf("host reported %d runtime marks, want 2", len(p.stats.Marks))
	}
	p.steps = timedSteps(p.recs)
	if host.tracePath != "" {
		if p.spans, err = span.ReadFile(host.tracePath); err != nil {
			return nil, err
		}
	}
	ck, err := os.ReadFile(filepath.Join(p.ckptDir, "shard-0.ckpt"))
	if err != nil {
		return nil, err
	}
	p.ckptBytes = len(ck)
	return p, nil
}

// durableLatencies returns the timed frames' send→ack latencies in ns.
func durableLatencies(recs []frameRec) []float64 {
	var lat []float64
	for _, f := range recs {
		if f.phase == 0 && !f.failed {
			lat = append(lat, float64(f.recv-f.sendStart))
		}
	}
	return lat
}

// durableTrials is how many fresh clusters an untraced run measures,
// each for an equal share of the seconds. Group-commit throughput follows
// the disk's fsync latency and the scheduling of the host's many threads,
// and on a shared machine both stall for seconds at a time; so many short
// trials spread over the run, and the report pools their latencies and
// takes the median of their other values: a stall that hits a few trials
// does not move the result.
const durableTrials = 10

func runDurable(r run, traced bool) (*result, error) {
	res := &result{}
	if traced {
		plain, err := durableOnce(r, "plain", 0, false, float64(r.seconds))
		if err != nil {
			return nil, err
		}
		p, err := durableOnce(r, "traced", 0, true, float64(r.seconds))
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = durableCounts(p)
		res.layer = durableLayers(p, plain, res)
		return res, nil
	}
	var setup, rate, cost, rss, lat []float64
	for i := 0; i < durableTrials; i++ {
		p, err := durableOnce(r, fmt.Sprintf("trial%d", i), i, false, float64(r.seconds)/durableTrials)
		if err != nil {
			return nil, err
		}
		tl := durableLatencies(p.recs)
		lat = append(lat, tl...)
		setup = append(setup, p.setupS)
		rate = append(rate, float64(len(tl))/p.timedS)
		cost = append(cost, p.metrics.Cost.Total/float64(p.metrics.Requests))
		rss = append(rss, float64(p.stats.PeakRSSKB)/1024)
		a, f := durableCounts(p)
		res.attempted += a
		res.failed += f
		res.note("durable trial %d: %d frames in %.2fs over %d steps: %.0f batches/s, p50 %.3fms p99 %.3fms, cost/request %.4f", i, len(tl), p.timedS, p.steps, rate[i], durMS(q(tl, 0.5)), durMS(q(tl, 0.99)), cost[i])
		res.note("  gate: every frame acked once, in order; sums equal /metrics (%d steps, %d requests); no failover", p.metrics.Steps, p.metrics.Requests)
	}
	p50, p99, n, err := latencyStats(lat)
	if err != nil {
		return nil, err
	}
	res.unbounded("batches_per_s", q(rate, 0.5), "1/s", "median over trials")
	res.unbounded("ack_p50_ms", durMS(p50), "ms", fmt.Sprintf("over %d samples", n))
	res.unbounded("ack_p99_ms", durMS(p99), "ms", fmt.Sprintf("over %d samples", n))
	res.unbounded("fail_frac", float64(res.failed)/float64(res.attempted), "ratio", fmt.Sprintf("%d of %d batches throttled, refused or errored", res.failed, res.attempted))
	res.e2e = map[string]metric{
		"setup_s":          {q(setup, 0.5), "s"},
		"cost_per_request": {q(cost, 0.5), "cost"},
		"peak_rss_mb":      {q(rss, 0.5), "MiB"},
	}
	res.note("durable: %d trials; latency percentiles over all %d samples, other values are trial medians", durableTrials, n)
	return res, nil
}

func durableCounts(p *durablePass) (attempted, failed int64) {
	for _, f := range p.recs {
		if f.phase < 0 {
			continue
		}
		attempted++
		if f.failed {
			failed++
		}
	}
	return attempted, failed + p.throttles
}
