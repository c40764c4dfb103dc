package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/fsx"
	"repro/internal/shard"
	"repro/internal/wire"

	"repro/perfbench/proc"
	"repro/perfbench/span"
)

// layerNames are the per-layer metrics every traced run reports, with
// their units. A layer a workload does not exercise reads 0 there (see
// the heavy/light table in BENCHMARK.json's workload reasons).
var layerNames = map[string]string{
	"loadgen.late_p50_ms":               "ms",
	"loadgen.late_p99_ms":               "ms",
	"workload.gen_s":                    "s",
	"streamclient.step_us_p50":          "us",
	"streamclient.throttles":            "count",
	"wire.step_encode_ns":               "ns",
	"wire.step_decode_ns":               "ns",
	"wire.ack_encode_ns":                "ns",
	"wire.ack_decode_ns":                "ns",
	"wire.step_bytes":                   "bytes",
	"wire.ack_bytes":                    "bytes",
	"wire.checkpoint_bytes":             "bytes",
	"server.residual_us_p50":            "us",
	"server.sse_events_per_step":        "ratio",
	"protocol.batches_per_step":         "ratio",
	"protocol.queue_wait_us_p50":        "us",
	"protocol.loop_busy_frac":           "ratio",
	"protocol.handoff_us_p50":           "us",
	"shard.step_us_p50":                 "us",
	"shard.step_us_p99":                 "us",
	"shard.skew":                        "ratio",
	"shard.rebalances":                  "count",
	"shard.route_ns":                    "ns",
	"engine.step_us_p50":                "us",
	"engine.self_us_p50":                "us",
	"multi.move_us_p50":                 "us",
	"multi.move_us_p99":                 "us",
	"multi.slowest_share":               "ratio",
	"core.move_us_p50":                  "us",
	"cluster.submit_us_p50":             "us",
	"cluster.resolve_us_p50":            "us",
	"cluster.inflight_mean":             "count",
	"cluster.failovers":                 "count",
	"fsx.write_us_p50":                  "us",
	"fsx.write_us_p99":                  "us",
	"runtime.alloc_bytes_per_step":      "bytes",
	"runtime.gc_cycles":                 "count",
	"runtime.cpu_us_per_step":           "us",
	"trace.ack_mean_ms":                 "ms",
	"trace.overhead_frac.ack_p50_ms":    "ratio",
	"trace.overhead_frac.batches_per_s": "ratio",
}

// shareLayers are the layers the mean ack latency is split across; the
// residual is what no timed span of the frame covers.
var shareLayers = []string{"loadgen", "streamclient", "wire", "protocol", "shard", "engine", "multi", "core", "cluster", "fsx", "server.residual"}

func init() {
	for _, l := range shareLayers {
		layerNames["share."+l+"_ms"] = "ms"
	}
}

// layers collects one traced run's per-layer values.
type layers struct {
	m      map[string]metric
	shares map[string]float64 // summed self time per layer, ns
	frames int                // frames attributed
	total  float64            // summed ack latency of those frames, ns
}

func newLayers() *layers {
	l := &layers{m: map[string]metric{}, shares: map[string]float64{}}
	for n, u := range layerNames {
		l.m[n] = metric{0, u}
	}
	return l
}

func (l *layers) set(name string, v float64) {
	u, ok := layerNames[name]
	if !ok {
		panic("bench: unknown layer metric " + name)
	}
	l.m[name] = metric{v, u}
}

// attribute adds one frame's self times (ns) per layer; they must sum to
// the frame's ack latency, so the residual absorbs whatever is left.
func (l *layers) attribute(latency float64, parts map[string]float64) {
	rest := latency
	for k, v := range parts {
		l.shares[k] += v
		rest -= v
	}
	l.shares["server.residual"] += rest
	l.frames++
	l.total += latency
}

// finish turns the attributed sums into per-frame means and records the
// report lines.
func (l *layers) finish(res *result) map[string]metric {
	if l.frames == 0 {
		return l.m
	}
	mean := l.total / float64(l.frames)
	l.set("trace.ack_mean_ms", durMS(mean))
	res.note("traced: self-time shares of the mean ack latency %.4f ms over %d frames:", durMS(mean), l.frames)
	sum := 0.0
	for _, layer := range shareLayers {
		v := l.shares[layer] / float64(l.frames)
		sum += v
		l.set("share."+layer+"_ms", durMS(v))
		res.note("  %-16s %10.4f ms  %6.2f%%", layer, durMS(v), 100*v/mean)
	}
	res.note("  %-16s %10.4f ms (sum of shares)", "total", durMS(sum))
	return l.m
}

// byStep indexes spans of one name by step index.
func byStep(spans []span.Span, name string) map[int64][]span.Span {
	out := map[int64][]span.Span{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Step] = append(out[s.Step], s)
		}
	}
	return out
}

func durs(ss []span.Span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.Dur())
	}
	return out
}

func q(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return span.Quantile(append([]float64(nil), xs...), p)
}

func us(ns float64) float64 { return ns / 1e3 }

// coverage is how much of [lo, hi) the spans cover.
func coverage(ss []span.Span, lo, hi int64) float64 {
	ivs := make([][2]int64, len(ss))
	for i, s := range ss {
		ivs[i] = [2]int64{s.Start, s.End}
	}
	return float64(span.Union(ivs, lo, hi))
}

// setRuntime reports the untraced pass's runtime counters over its timed
// window, per executed step.
func (l *layers) setRuntime(before, after proc.Mark, steps int) {
	if steps == 0 {
		return
	}
	l.set("runtime.alloc_bytes_per_step", float64(after.AllocBytes-before.AllocBytes)/float64(steps))
	l.set("runtime.gc_cycles", float64(after.GCCycles-before.GCCycles))
	l.set("runtime.cpu_us_per_step", (after.CPUSeconds-before.CPUSeconds)*1e6/float64(steps))
}

func (l *layers) setOverhead(tracedP50, plainP50, tracedRate, plainRate float64) {
	l.set("trace.overhead_frac.ack_p50_ms", (tracedP50-plainP50)/plainP50)
	l.set("trace.overhead_frac.batches_per_s", (plainRate-tracedRate)/plainRate)
}

func replayLayers(seed uint64, p, plain *replayPass, res *result) map[string]metric {
	l := newLayers()
	steps := byStep(p.spans, "shard.step")
	moves := byStep(p.spans, "multi.move")
	posts := byStep(p.spans, "protocol.post")
	var stepDur, moveDur, slowest, queueWait, handoff []float64
	var busy float64
	for _, sub := range p.spans {
		if sub.Name != "protocol.submit" {
			continue
		}
		st := steps[sub.Step]
		if len(st) != 1 {
			continue
		}
		s := st[0]
		ms := moves[sub.Step]
		multi := coverage(ms, s.Start, s.End)
		l.attribute(float64(sub.Dur()), map[string]float64{
			"protocol": float64(sub.Dur() - s.Dur()),
			"shard":    float64(s.Dur()) - multi,
			"multi":    multi,
		})
		stepDur = append(stepDur, float64(s.Dur()))
		md := durs(ms)
		moveDur = append(moveDur, md...)
		if len(md) > 0 {
			sort.Float64s(md)
			slowest = append(slowest, md[len(md)-1]/float64(s.Dur()))
		}
		queueWait = append(queueWait, float64(s.Start-sub.Start))
		handoff = append(handoff, float64(sub.Dur()-s.Dur()))
		busy += float64(s.Dur())
		for _, ps := range posts[sub.Step] {
			busy += float64(ps.Dur())
		}
	}
	l.set("loadgen.late_p50_ms", durMS(q(p.late, 0.5)))
	l.set("loadgen.late_p99_ms", durMS(q(p.late, 0.99)))
	l.set("workload.gen_s", p.genS)
	l.set("protocol.batches_per_step", 1)
	l.set("protocol.queue_wait_us_p50", us(q(queueWait, 0.5)))
	l.set("protocol.handoff_us_p50", us(q(handoff, 0.5)))
	l.set("protocol.loop_busy_frac", busy/(p.timedS*1e9))
	l.set("shard.step_us_p50", us(q(stepDur, 0.5)))
	l.set("shard.step_us_p99", us(q(stepDur, 0.99)))
	l.set("shard.skew", skew(p.routed))
	l.set("shard.rebalances", float64(p.rebalances))
	l.set("shard.route_ns", routeNS(seed))
	l.set("multi.move_us_p50", us(q(moveDur, 0.5)))
	l.set("multi.move_us_p99", us(q(moveDur, 0.99)))
	l.set("multi.slowest_share", span.Mean(slowest))
	l.setRuntime(plain.before, plain.after, len(plain.lat))
	l.setOverhead(q(p.lat, 0.5), q(plain.lat, 0.5), float64(len(p.lat))/p.timedS, float64(len(plain.lat))/plain.timedS)
	return l.finish(res)
}

// skew is the busiest shard's load over the mean shard load.
func skew(load []int) float64 {
	total, most := 0, 0
	for _, n := range load {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most) / (float64(total) / float64(len(load)))
}

// routeNS times shard.Router.Route over the replay instance's batches,
// in ns per batch.
func routeNS(seed uint64) float64 {
	in := replayInstance(seed)
	r, err := shard.New(replayCfg, shard.Starts(replayCfg, replaySpan), replayAlg, engine.Options{})
	if err != nil {
		return 0
	}
	var best float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, st := range in.Steps {
			r.Route(st.Requests)
		}
		ns := float64(time.Since(start)) / float64(len(in.Steps))
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// wireCost is the binary codec calibrated over a run's own frames.
type wireCost struct {
	stepEnc, stepDec, ackEnc, ackDec float64 // ns per frame
	stepBytes, ackBytes              float64
}

// calibrateWire times the public binary codec over the step frames the
// run sent and the acks it received (a sample), taking the fastest of
// three passes of each.
func calibrateWire(frames [][]wire.Point, acks []wire.AckFrame) wireCost {
	var c wireCost
	if len(frames) == 0 || len(acks) == 0 {
		return c
	}
	payloads := make([][]byte, len(frames))
	var buf []byte
	var sf wire.StepFrame
	var af wire.AckFrame
	timeit := func(n int, f func(i int)) float64 {
		best := 0.0
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				f(i)
			}
			ns := float64(time.Since(start)) / float64(n)
			if pass == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	c.stepEnc = timeit(len(frames), func(i int) { buf = wire.AppendStepFrom(buf[:0], wire.V1, int64(i+1), frames[i]) })
	total := 0
	for i, f := range frames {
		payloads[i] = wire.AppendStepFrom(nil, wire.V1, int64(i+1), f)
		total += len(payloads[i])
	}
	c.stepBytes = float64(total) / float64(len(frames))
	c.stepDec = timeit(len(frames), func(i int) { _ = wire.DecodeStep(payloads[i], &sf) })
	ackPayloads := make([][]byte, len(acks))
	total = 0
	for i, a := range acks {
		ackPayloads[i] = wire.AppendAckFrom(nil, wire.V1, a.ID, a.T, a.Accepted, a.Batched, a.Cost, a.Clamped, a.Positions, a.Shards)
		total += len(ackPayloads[i])
	}
	c.ackBytes = float64(total) / float64(len(acks))
	c.ackEnc = timeit(len(acks), func(i int) {
		a := &acks[i]
		buf = wire.AppendAckFrom(buf[:0], wire.V1, a.ID, a.T, a.Accepted, a.Batched, a.Cost, a.Clamped, a.Positions, a.Shards)
	})
	c.ackDec = timeit(len(acks), func(i int) { _ = wire.DecodeAck(ackPayloads[i], &af) })
	return c
}

func (l *layers) setWire(c wireCost) {
	l.set("wire.step_encode_ns", c.stepEnc)
	l.set("wire.step_decode_ns", c.stepDec)
	l.set("wire.ack_encode_ns", c.ackEnc)
	l.set("wire.ack_decode_ns", c.ackDec)
	l.set("wire.step_bytes", c.stepBytes)
	l.set("wire.ack_bytes", c.ackBytes)
}

// sentFrames is the prefix of the frame pool a run actually sent.
func sentFrames(pool [][]wire.Point, sent int) [][]wire.Point {
	return pool[:min(sent, len(pool))]
}

func ingestLayers(p, plain *ingestPass, res *result) map[string]metric {
	l := newLayers()
	c := calibrateWire(sentFrames(p.frames, p.sent), p.samples)
	l.setWire(c)
	steps := byStep(p.spans, "engine.step")
	moves := byStep(p.spans, "core.move")
	posts := byStep(p.spans, "protocol.post")
	var sendDur, residual, queueWait, handoff, stepDur, selfDur, moveDur []float64
	var busy float64
	var first, last int64
	seen := map[int64]bool{}
	// Attribute the reference rung's frames, the ones ack_p50_ms and
	// ack_p99_ms are reported over.
	for _, f := range p.recs {
		if f.phase != 0 || f.failed {
			continue
		}
		if first == 0 || f.due < first {
			first = f.due
		}
		last = max(last, f.recv)
		t := int64(f.t)
		st := steps[t]
		if len(st) != 1 || len(moves[t]) != 1 {
			continue
		}
		s, mv := st[0], moves[t][0]
		send := float64(f.sendEnd - f.sendStart)
		l.attribute(float64(f.recv-f.due), map[string]float64{
			"loadgen":      float64(f.sendStart - f.due),
			"streamclient": send - c.stepEnc,
			"wire":         c.stepEnc + c.stepDec + c.ackEnc + c.ackDec,
			"protocol":     float64(s.Start-f.sendEnd) - c.stepDec,
			"engine":       float64(s.Dur() - mv.Dur()),
			"core":         float64(mv.Dur()),
		})
		sendDur = append(sendDur, send)
		residual = append(residual, float64(f.recv-s.End)-c.ackEnc-c.ackDec)
		queueWait = append(queueWait, float64(s.Start-f.sendEnd))
		handoff = append(handoff, float64(f.recv-f.sendEnd-s.Dur()))
		if !seen[t] {
			seen[t] = true
			stepDur = append(stepDur, float64(s.Dur()))
			selfDur = append(selfDur, float64(s.Dur()-mv.Dur()))
			moveDur = append(moveDur, float64(mv.Dur()))
			busy += float64(s.Dur())
			for _, ps := range posts[t] {
				busy += float64(ps.Dur())
			}
		}
	}
	frames := 0
	for _, f := range p.recs {
		if f.phase >= 0 && !f.failed {
			frames++
		}
	}
	l.set("loadgen.late_p50_ms", durMS(q(p.late, 0.5)))
	l.set("loadgen.late_p99_ms", durMS(q(p.late, 0.99)))
	l.set("workload.gen_s", p.genS)
	l.set("streamclient.step_us_p50", us(q(sendDur, 0.5)))
	l.set("streamclient.throttles", float64(p.throttles))
	l.set("server.residual_us_p50", us(q(residual, 0.5)))
	l.set("server.sse_events_per_step", float64(p.sseEvents)/float64(p.metrics.Steps))
	l.set("protocol.batches_per_step", float64(frames)/float64(p.steps))
	l.set("protocol.queue_wait_us_p50", us(q(queueWait, 0.5)))
	l.set("protocol.handoff_us_p50", us(q(handoff, 0.5)))
	if last > first {
		l.set("protocol.loop_busy_frac", busy/float64(last-first))
	}
	l.set("shard.skew", 1)
	l.set("engine.step_us_p50", us(q(stepDur, 0.5)))
	l.set("engine.self_us_p50", us(q(selfDur, 0.5)))
	l.set("core.move_us_p50", us(q(moveDur, 0.5)))
	l.setRuntime(plain.stats.Marks[0], plain.stats.Marks[1], plain.steps)
	_, tracedRate := p.refLatencies()
	_, plainRate := plain.refLatencies()
	l.setOverhead(p.rungs[0].p50, plain.rungs[0].p50, tracedRate, plainRate)
	return l.finish(res)
}

// fsxWrites is how many checkpoint-sized atomic writes the durable
// calibration times: enough for ten samples beyond the p99.
const fsxWrites = 1000

// calibrateFsx times fsx.WriteFileAtomic at the measured checkpoint size
// in the run's own checkpoint directory, in ns per write.
func calibrateFsx(dir string, size int) ([]float64, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	path := filepath.Join(dir, "calibration.ckpt")
	out := make([]float64, 0, fsxWrites)
	for i := 0; i < fsxWrites; i++ {
		start := time.Now()
		if err := fsx.WriteFileAtomic(path, data, d); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start)))
	}
	return out, os.Remove(path)
}

func durableLayers(p, plain *durablePass, res *result) map[string]metric {
	l := newLayers()
	c := calibrateWire(sentFrames(p.frames, p.sent), p.samples)
	l.setWire(c)
	l.set("wire.checkpoint_bytes", float64(p.ckptBytes))
	writes, err := calibrateFsx(p.ckptDir, p.ckptBytes)
	fsxMean := 0.0
	if err != nil {
		res.note("fsx calibration failed, fsx share left in cluster: %v", err)
	} else {
		fsxMean = span.Mean(writes)
	}
	l.set("fsx.write_us_p50", us(q(writes, 0.5)))
	l.set("fsx.write_us_p99", us(q(writes, 0.99)))

	submits := byStep(p.spans, "cluster.submit")
	resolves := byStep(p.spans, "cluster.resolve")
	moves := byStep(p.spans, "multi.move")
	posts := byStep(p.spans, "protocol.post")
	var sendDur, residual, queueWait, handoff, subDur, resDur, moveDur, slowest, late []float64
	var busy float64
	var first, last int64
	seen := map[int64]bool{}
	for _, f := range p.recs {
		if f.phase < 0 || f.failed {
			continue
		}
		if first == 0 || f.sendStart < first {
			first = f.sendStart
		}
		last = max(last, f.recv)
		late = append(late, float64(f.sendStart-f.due))
		t := int64(f.t)
		if len(submits[t]) != 1 || len(resolves[t]) != 1 {
			continue
		}
		sub, rs := submits[t][0], resolves[t][0]
		ms := moves[t]
		multi := coverage(ms, sub.Start, rs.End)
		fsxPart := min(fsxMean, float64(rs.End-sub.Start)-multi)
		send := float64(f.sendEnd - f.sendStart)
		l.attribute(float64(f.recv-f.sendStart), map[string]float64{
			"streamclient": send - c.stepEnc,
			"wire":         c.stepEnc + c.stepDec + c.ackEnc + c.ackDec,
			"protocol":     float64(sub.Start-f.sendEnd) - c.stepDec,
			"multi":        multi,
			"fsx":          fsxPart,
			"cluster":      float64(rs.End-sub.Start) - multi - fsxPart,
		})
		sendDur = append(sendDur, send)
		residual = append(residual, float64(f.recv-rs.End)-c.ackEnc-c.ackDec)
		queueWait = append(queueWait, float64(sub.Start-f.sendEnd))
		handoff = append(handoff, float64(f.recv-f.sendEnd-(rs.End-sub.Start)))
		if !seen[t] {
			seen[t] = true
			subDur = append(subDur, float64(sub.Dur()))
			resDur = append(resDur, float64(rs.Dur()))
			md := durs(ms)
			moveDur = append(moveDur, md...)
			if len(md) > 0 {
				sort.Float64s(md)
				slowest = append(slowest, md[len(md)-1]/float64(rs.End-sub.Start))
			}
			busy += float64(sub.Dur() + rs.Dur())
			for _, ps := range posts[t] {
				busy += float64(ps.Dur())
			}
		}
	}
	frames := len(durableLatencies(p.recs))
	load := make([]int, len(p.metrics.Shards))
	for i, sh := range p.metrics.Shards {
		load[i] = sh.Requests
	}
	l.set("loadgen.late_p50_ms", durMS(q(late, 0.5)))
	l.set("loadgen.late_p99_ms", durMS(q(late, 0.99)))
	l.set("workload.gen_s", p.genS)
	l.set("streamclient.step_us_p50", us(q(sendDur, 0.5)))
	l.set("streamclient.throttles", float64(p.throttles))
	l.set("server.residual_us_p50", us(q(residual, 0.5)))
	l.set("protocol.batches_per_step", float64(frames)/float64(p.steps))
	l.set("protocol.queue_wait_us_p50", us(q(queueWait, 0.5)))
	l.set("protocol.handoff_us_p50", us(q(handoff, 0.5)))
	if last > first {
		l.set("protocol.loop_busy_frac", busy/float64(last-first))
	}
	l.set("shard.skew", skew(load))
	l.set("multi.move_us_p50", us(q(moveDur, 0.5)))
	l.set("multi.move_us_p99", us(q(moveDur, 0.99)))
	l.set("multi.slowest_share", span.Mean(slowest))
	l.set("cluster.submit_us_p50", us(q(subDur, 0.5)))
	l.set("cluster.resolve_us_p50", us(q(resDur, 0.5)))
	l.set("cluster.inflight_mean", p.stats.InflightMean)
	l.set("cluster.failovers", float64(p.stats.Failovers))
	l.setRuntime(plain.stats.Marks[0], plain.stats.Marks[1], plain.steps)
	tl, pl := durableLatencies(p.recs), durableLatencies(plain.recs)
	l.setOverhead(q(tl, 0.5), q(pl, 0.5), float64(len(tl))/p.timedS, float64(len(pl))/plain.timedS)
	return l.finish(res)
}
