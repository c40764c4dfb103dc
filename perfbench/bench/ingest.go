package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrand"

	"repro/perfbench/proc"
	"repro/perfbench/span"
)

// The ingest workload's shape: D devices share a 10 Hz tick, each sending
// one frame of 2 hotspot requests per tick to a single k=1 MtC session.
const (
	ingestTick      = 100 * time.Millisecond
	ingestLimit     = 50 * time.Millisecond // p99 limit: half the tick
	ingestFrameReqs = 2
	ingestPool      = 1 << 16 // generated frames, cycled
	ingestWarm      = 2       // reference-sized bursts before timing
	ingestRungTicks = 6
	// ingestDrain bounds the wait for a rung's last acks.
	ingestDrain = 10 * time.Second
)

// ingestLadder is the fixed ladder of device counts. Its first rung is
// the reference rung the latency metrics are reported at. The rungs above
// it, 1.5× apart from 4.5× the reference, run ingestRungTicks ticks each
// and climb until two in a row miss the limit; a system too slow for the
// first of them still gets a max_rate, interpolated from the reference.
var ingestLadder = []int{600, 2700, 4050, 6080, 9110, 13670, 20500}

// ingestTrials is how many fresh hosts an untraced run measures, each
// for an equal share of the seconds. Tick-burst latency swings with the
// machine's scheduling from one moment and one process to the next;
// trials spread the measurement over the run, and the report pools or
// takes the median across them.
const ingestTrials = 5

func ingestFrames(seed uint64) [][]wire.Point {
	g := workload.WithRequests(workload.Hotspot{}, ingestFrameReqs)
	return toFrames(g.Generate(xrand.NewStream(seed, 2), core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5}, ingestPool))
}

// toFrames turns each step of an instance into one frame's requests.
func toFrames(in *core.Instance) [][]wire.Point {
	out := make([][]wire.Point, len(in.Steps))
	for i, st := range in.Steps {
		f := make([]wire.Point, len(st.Requests))
		for j, p := range st.Requests {
			f[j] = wire.Point(p)
		}
		out[i] = f
	}
	return out
}

// rungStat is one ladder rung's outcome.
type rungStat struct {
	devices  int
	rate     float64 // offered batches/s
	p50, p99 float64 // ns, from the scheduled tick
	paced    bool
	failed   int
	pass     bool
}

// ingestPass is one set-up-and-measure of the ingest workload.
type ingestPass struct {
	setupS, genS float64
	rungs        []rungStat
	recs         []frameRec
	late         []float64 // per tick, ns
	samples      []wire.AckFrame
	frames       [][]wire.Point
	sent         int
	throttles    int64
	sseEvents    int64
	steps        int // executed in the timed window
	metrics      wire.MetricsResponse
	stats        proc.Stats
	// refRSSKB is the host's peak resident set through the reference
	// rung. The ladder above it drives the host into overload on purpose,
	// and how far a trial climbs, and so how much backlog the host
	// buffers, follows the machine's speed.
	refRSSKB int64
	spans    []span.Span
}

// ingestSession is a host plus the generator's two connections.
type ingestSession struct {
	host   *hostProc
	stream *streamSession
	sse    *sseReader
}

func (s *ingestSession) abort() {
	if s.stream != nil {
		_ = s.stream.close()
	}
	if s.sse != nil {
		_ = s.sse.close()
	}
	if s.host != nil {
		s.host.kill()
	}
}

func ingestSetup(r run, tag string, traced bool, p *ingestPass) (*ingestSession, error) {
	start := time.Now()
	p.frames = ingestFrames(r.seed)
	p.genS = since(start)
	s := &ingestSession{}
	var err error
	if s.host, err = startHost(r.hostBin, r.work, tag, traced, "-mode", "ingest"); err != nil {
		return nil, err
	}
	if s.stream, err = openStream(s.host.url, 2, 0); err != nil {
		s.abort()
		return nil, err
	}
	if s.sse, err = openSSE(s.host.url); err != nil {
		s.abort()
		return nil, err
	}
	for b := 0; b < ingestWarm; b++ {
		for d := 0; d < ingestLadder[0]; d++ {
			if err := s.stream.send(p.next(), -1, span.Now()); err != nil {
				s.abort()
				return nil, err
			}
		}
		if !s.stream.waitAcked(int64(p.sent), ingestDrain) {
			s.abort()
			return nil, fmt.Errorf("ingest warm-up burst %d not acked within %v", b, ingestDrain)
		}
	}
	p.setupS = since(start)
	return s, nil
}

// next returns the next generated frame, cycling through the pool.
func (p *ingestPass) next() []wire.Point {
	f := p.frames[p.sent%len(p.frames)]
	p.sent++
	return f
}

// ingestOnce sets up, runs the reference rung for refTicks ticks, climbs
// the ladder, and gates the run.
func ingestOnce(r run, tag string, traced bool, refTicks int) (*ingestPass, error) {
	p := &ingestPass{}
	s, err := ingestSetup(r, tag, traced, p)
	if err != nil {
		return nil, err
	}
	if err := s.host.mark(true); err != nil {
		s.abort()
		return nil, err
	}
	for i, devices := range ingestLadder {
		ticks := ingestRungTicks
		if i == 0 {
			ticks = refTicks
		}
		st, err := p.rung(s, i, devices, ticks)
		if err != nil {
			s.abort()
			return nil, err
		}
		p.rungs = append(p.rungs, st)
		if i == 0 {
			if p.refRSSKB, err = proc.PeakRSSKB(strconv.Itoa(s.host.cmd.Process.Pid)); err != nil {
				s.abort()
				return nil, err
			}
		}
		if n := len(p.rungs); n >= 3 && !p.rungs[n-1].pass && !p.rungs[n-2].pass {
			break
		}
	}
	if err := s.host.mark(false); err != nil {
		s.abort()
		return nil, err
	}
	return p, p.finish(s)
}

// rung runs one ladder rung: ticks bursts of devices frames on the 10 Hz
// schedule, then waits for the rung's acks and judges it.
func (p *ingestPass) rung(s *ingestSession, idx, devices, ticks int) (rungStat, error) {
	st := rungStat{devices: devices, rate: float64(devices) * float64(time.Second/ingestTick)}
	first := p.sent
	sched := time.Now().Add(time.Millisecond)
	for k := 0; k < ticks; k++ {
		due := sched.Add(time.Duration(k) * ingestTick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.late = append(p.late, float64(time.Since(due)))
		dueNs := due.UnixNano()
		for d := 0; d < devices; d++ {
			if err := s.stream.send(p.next(), idx, dueNs); err != nil {
				return st, err
			}
		}
	}
	if !s.stream.waitAcked(int64(p.sent), ingestDrain) {
		return st, fmt.Errorf("ingest rung %d devices: acks not back within %v", devices, ingestDrain)
	}
	// Every sent frame is acked and the receiver is idle until the next
	// send, so its records up to p.sent are stable to read.
	recs := s.stream.recs[first:p.sent]
	lat := make([]float64, 0, len(recs))
	doneAt := map[int64]int64{}
	for _, f := range recs {
		if f.failed {
			st.failed++
			continue
		}
		lat = append(lat, float64(f.recv-f.due))
		doneAt[f.due] = max(doneAt[f.due], f.recv)
	}
	if len(lat) > 0 {
		st.p50 = span.Quantile(lat, 0.5)
		st.p99 = span.Quantile(lat, 0.99)
	}
	// Acks keep pace when nine ticks in ten are fully acked within one
	// tick of their schedule: a backlog carried into the next tick fails
	// this even while the percentiles still look healthy.
	var drain []float64
	for due, at := range doneAt {
		drain = append(drain, float64(at-due))
	}
	st.paced = len(drain) > 0 && span.Quantile(drain, 0.9) <= float64(ingestTick)
	st.pass = st.failed == 0 && st.paced && st.p99 <= float64(ingestLimit)
	return st, nil
}

// finish ends the connections, applies the gates and stops the host.
func (p *ingestPass) finish(s *ingestSession) error {
	stream, sse, host := s.stream, s.sse, s.host
	s.stream, s.sse = nil, nil
	streamErr := stream.close()
	sseErr := sse.close()
	p.recs = stream.recs
	p.samples = stream.samples
	p.throttles = stream.client.Throttles()
	p.sseEvents = sse.events.Load()
	if err := firstErr(streamErr, sseErr, getJSON(host.url+"/metrics", &p.metrics)); err != nil {
		s.abort()
		return err
	}
	if err := stream.tally.reconcile(p.metrics); err != nil {
		s.abort()
		return err
	}
	stats, err := host.stop()
	s.host = nil
	if err != nil {
		return err
	}
	p.stats = stats
	if len(stats.Marks) != 2 {
		return fmt.Errorf("host reported %d runtime marks, want 2", len(stats.Marks))
	}
	p.steps = timedSteps(p.recs)
	if host.tracePath != "" {
		if p.spans, err = span.ReadFile(host.tracePath); err != nil {
			return err
		}
	}
	return nil
}

// timedSteps counts the distinct engine steps that served timed frames.
func timedSteps(recs []frameRec) int {
	n, last := 0, -1
	for _, f := range recs {
		if f.phase >= 0 && !f.failed && f.t != last {
			n++
			last = f.t
		}
	}
	return n
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unreached is the p99 a trial contributes for a rung it never ran: it
// stopped climbing after two misses below.
const unreached = 1e18

// ladderP99 combines the trials' climbs into one p99 per rung: the median
// over trials, where a rung missed for pace or errors counts as twice the
// limit and an unreached rung as unreached.
func ladderP99(trials [][]rungStat) []float64 {
	limit := float64(ingestLimit)
	out := make([]float64, len(ingestLadder))
	for j := range out {
		vs := make([]float64, len(trials))
		for i, rs := range trials {
			vs[i] = unreached
			if j < len(rs) {
				vs[i] = rs[j].p99
				if rs[j].failed > 0 || !rs[j].paced {
					vs[i] = max(vs[i], 2*limit)
				}
			}
		}
		sort.Float64s(vs)
		out[j] = vs[len(vs)/2]
	}
	return out
}

// maxRate is the rate of the highest rung whose p99 meets the limit,
// interpolated toward the rung above it by where the p99 crosses the
// limit between them. The p99s are first made non-decreasing in load
// (pool-adjacent-violators), since the true p99 cannot fall as the load
// rises: one noisy rung then neither ends the climb early nor lifts it.
// A ladder passed to the top reports its top rate; one failed from the
// reference up interpolates from zero.
func maxRate(rates, p99 []float64) float64 {
	limit := float64(ingestLimit)
	p99 = monotone(p99)
	best := -1
	for i := range rates {
		if p99[i] <= limit {
			best = i
		}
	}
	if best == len(rates)-1 {
		return rates[best]
	}
	lo, loP99 := 0.0, 0.0
	if best >= 0 {
		lo, loP99 = rates[best], p99[best]
	}
	hi, hiP99 := rates[best+1], p99[best+1]
	frac := min(max((limit-loP99)/(hiP99-loP99), 0), 1)
	return lo + frac*(hi-lo)
}

// ladderRates is each rung's offered rate in batches/s.
func ladderRates() []float64 {
	out := make([]float64, len(ingestLadder))
	for i, d := range ingestLadder {
		out[i] = float64(d) * float64(time.Second/ingestTick)
	}
	return out
}

// monotone is the least-squares non-decreasing fit of xs (pool adjacent
// violators, equal weights).
func monotone(xs []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, x := range xs {
		bs = append(bs, block{x, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) <= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

func runIngest(r run, traced bool) (*result, error) {
	res := &result{}
	ticks := r.seconds * int(time.Second/ingestTick)
	if traced {
		plain, err := ingestOnce(r, "plain", false, max(ticks/2, 1))
		if err != nil {
			return nil, err
		}
		p, err := ingestOnce(r, "traced", true, max(ticks/2, 1))
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = ingestCounts(p)
		res.layer = ingestLayers(p, plain, res)
		return res, nil
	}
	var setup, rate, cost, rss, lat []float64
	var climbs [][]rungStat
	for i := 0; i < ingestTrials; i++ {
		p, err := ingestOnce(r, fmt.Sprintf("trial%d", i), false, max(ticks/(2*ingestTrials), 1))
		if err != nil {
			return nil, err
		}
		refLat, refRate := p.refLatencies()
		lat = append(lat, refLat...)
		climbs = append(climbs, p.rungs)
		setup = append(setup, p.setupS)
		rate = append(rate, refRate)
		cost = append(cost, p.metrics.Cost.Total/float64(p.metrics.Requests))
		rss = append(rss, float64(p.refRSSKB)/1024)
		a, f := ingestCounts(p)
		res.attempted += a
		res.failed += f
		for _, st := range p.rungs {
			res.note("ingest trial %d rung %5d devices (%6.0f batches/s): p50 %7.3fms p99 %8.3fms paced %-5v failed %d", i, st.devices, st.rate, durMS(st.p50), durMS(st.p99), st.paced, st.failed)
		}
		res.note("  gate: every frame acked once, in order; sums equal /metrics (%d steps, %d requests)", p.metrics.Steps, p.metrics.Requests)
	}
	p50, p99, n, err := latencyStats(lat)
	if err != nil {
		return nil, err
	}
	res.unbounded("batches_per_s", q(rate, 0.5), "1/s", "reference-rung drain rate, median over trials")
	res.unbounded("ack_p50_ms", durMS(p50), "ms", fmt.Sprintf("reference rung, over %d samples", n))
	res.unbounded("ack_p99_ms", durMS(p99), "ms", fmt.Sprintf("reference rung, over %d samples", n))
	res.unbounded("max_rate", maxRate(ladderRates(), ladderP99(climbs)), "batches/s", fmt.Sprintf("highest ladder rate whose per-rung median p99 meets %v", ingestLimit))
	res.unbounded("fail_frac", float64(res.failed)/float64(res.attempted), "ratio", fmt.Sprintf("%d of %d batches throttled, refused or errored", res.failed, res.attempted))
	res.e2e = map[string]metric{
		"setup_s":          {q(setup, 0.5), "s"},
		"cost_per_request": {q(cost, 0.5), "cost"},
		"peak_rss_mb":      {q(rss, 0.5), "MiB"},
	}
	res.note("ingest: %d trials; reference-rung (%d devices) percentiles over all %d samples, other values are trial medians",
		ingestTrials, ingestLadder[0], n)
	return res, nil
}

// refLatencies returns the reference rung's latencies (ns) and its drain
// rate: the median over its bursts of frames acked ÷ (last ack − tick),
// the rate at which the server turns a tick's burst into acks.
func (p *ingestPass) refLatencies() ([]float64, float64) {
	type burst struct {
		n    int
		last int64
	}
	var lat []float64
	bursts := map[int64]*burst{}
	for _, f := range p.recs {
		if f.phase != 0 || f.failed {
			continue
		}
		lat = append(lat, float64(f.recv-f.due))
		b := bursts[f.due]
		if b == nil {
			b = &burst{}
			bursts[f.due] = b
		}
		b.n++
		b.last = max(b.last, f.recv)
	}
	rates := make([]float64, 0, len(bursts))
	for due, b := range bursts {
		rates = append(rates, float64(b.n)/(float64(b.last-due)/1e9))
	}
	return lat, span.Quantile(rates, 0.5)
}

// ingestCounts is the timed window's attempted and failed batches:
// throttled, refused or errored.
func ingestCounts(p *ingestPass) (attempted, failed int64) {
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
