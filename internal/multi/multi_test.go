package multi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/median"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func pt(coords ...float64) geom.Point { return geom.NewPoint(coords...) }

func fleetCfg(k int) core.Config {
	return core.Config{Dim: 2, D: 2, M: 1, Delta: 0, Order: core.MoveFirst, K: k}
}

func fleetInstance(t *testing.T, k, T int, seed uint64) *core.FleetInstance {
	t.Helper()
	cfg := fleetCfg(k)
	src := workload.Clusters{K: k, Sigma: 0.5, SwitchProb: 0.05, Requests: 2}.
		Generate(xrand.New(seed), cfg, T)
	in := &core.FleetInstance{Config: cfg, Starts: SpreadStarts(cfg, 5), Steps: src.Steps}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	if err := fleetCfg(3).Validate(); err != nil {
		t.Fatal(err)
	}
	// K=0 means a single server and stays valid; negative fleets do not.
	if err := fleetCfg(0).Validate(); err != nil {
		t.Fatalf("K=0 rejected: %v", err)
	}
	if fleetCfg(0).Servers() != 1 {
		t.Fatal("K=0 should mean one server")
	}
	bad := fleetCfg(-1)
	if err := bad.Validate(); err == nil {
		t.Fatal("K=-1 accepted")
	}
	bad = fleetCfg(2)
	bad.D = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad D accepted")
	}
}

func TestInstanceValidate(t *testing.T) {
	in := fleetInstance(t, 2, 10, 1)
	in.Starts = in.Starts[:1]
	if err := in.Validate(); err == nil {
		t.Fatal("start-count mismatch accepted")
	}
	in = fleetInstance(t, 2, 10, 1)
	in.Steps = nil
	if err := in.Validate(); err == nil {
		t.Fatal("empty steps accepted")
	}
}

func TestServeCostNearest(t *testing.T) {
	positions := []geom.Point{pt(0, 0), pt(10, 0)}
	reqs := []geom.Point{pt(1, 0), pt(9, 0)}
	if got := ServeCost(positions, reqs); got != 2 {
		t.Fatalf("ServeCost = %v, want 2", got)
	}
}

func TestRunLazyCost(t *testing.T) {
	cfg := fleetCfg(2)
	in := &core.FleetInstance{
		Config: cfg,
		Starts: []geom.Point{pt(0, 0), pt(10, 0)},
		Steps: []core.Step{
			{Requests: []geom.Point{pt(1, 0)}},
			{Requests: []geom.Point{pt(9, 0)}},
		},
	}
	res, err := Run(in, NewLazyK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Move != 0 || res.Cost.Serve != 2 {
		t.Fatalf("lazy cost = %+v", res.Cost)
	}
}

func TestMtCKRespectsCap(t *testing.T) {
	in := fleetInstance(t, 3, 100, 2)
	res, err := Run(in, NewMtCK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMove > in.Config.OnlineCap()*(1+1e-9) {
		t.Fatalf("MaxMove = %v", res.MaxMove)
	}
}

func TestMtCKBeatsLazyOnClusters(t *testing.T) {
	in := fleetInstance(t, 2, 300, 3)
	mtc, err := Run(in, NewMtCK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Run(in, NewLazyK(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mtc.Cost.Total() >= lazy.Cost.Total() {
		t.Fatalf("MtC-k (%v) did not beat Lazy-k (%v)", mtc.Cost.Total(), lazy.Cost.Total())
	}
}

func TestMoreServersHelp(t *testing.T) {
	// On a 3-cluster workload, K=3 should beat K=1 clearly.
	costAt := func(k int) float64 {
		sum := 0.0
		for seed := uint64(0); seed < 3; seed++ {
			cfg := fleetCfg(k)
			src := workload.Clusters{K: 3, Sigma: 0.5, SwitchProb: 0, Requests: 2}.
				Generate(xrand.New(seed), cfg, 200)
			in := &core.FleetInstance{Config: cfg, Starts: SpreadStarts(cfg, 10), Steps: src.Steps}
			res, err := Run(in, NewMtCK(), 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Cost.Total()
		}
		return sum
	}
	c1, c3 := costAt(1), costAt(3)
	if c3 >= c1 {
		t.Fatalf("K=3 (%v) not better than K=1 (%v)", c3, c1)
	}
}

func TestRunRejectsWrongArity(t *testing.T) {
	in := fleetInstance(t, 2, 5, 4)
	if _, err := Run(in, &badArity{}, 0); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

type badArity struct{ pos []geom.Point }

func (b *badArity) Name() string                             { return "bad" }
func (b *badArity) Reset(_ core.Config, starts []geom.Point) { b.pos = starts }
func (b *badArity) Move(_ []geom.Point) []geom.Point         { return b.pos[:1] }

func TestRunRejectsOverspeed(t *testing.T) {
	in := fleetInstance(t, 2, 5, 5)
	if _, err := Run(in, &teleporter{}, 0); err == nil {
		t.Fatal("teleporting fleet accepted")
	}
}

func TestClampModeTamesTeleporter(t *testing.T) {
	// The same fleet that strict mode rejects finishes under Clamp, with
	// every server held to the cap and the clamps counted.
	in := fleetInstance(t, 2, 5, 5)
	res, err := engine.Run(in, &teleporter{}, engine.Options{Mode: engine.Clamp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clamped == 0 {
		t.Fatal("no clamped moves counted")
	}
	if res.MaxMove > in.Config.OnlineCap()*(1+1e-9) {
		t.Fatalf("clamped fleet still moved %v", res.MaxMove)
	}
}

type teleporter struct{ pos []geom.Point }

func (b *teleporter) Name() string                             { return "teleport" }
func (b *teleporter) Reset(_ core.Config, starts []geom.Point) { b.pos = starts }
func (b *teleporter) Move(reqs []geom.Point) []geom.Point {
	if len(reqs) > 0 {
		out := make([]geom.Point, len(b.pos))
		for i := range out {
			out[i] = reqs[0].Clone()
		}
		b.pos = out
	}
	return b.pos
}

func TestSpreadStarts(t *testing.T) {
	cfg := fleetCfg(4)
	starts := SpreadStarts(cfg, 5)
	if len(starts) != 4 {
		t.Fatalf("got %d starts", len(starts))
	}
	for _, s := range starts {
		if math.Abs(geom.Dist(pt(0, 0), s)-5) > 1e-9 {
			t.Fatalf("start %v not on radius-5 circle", s)
		}
	}
	// 1-D spread.
	cfg1 := core.Config{Dim: 1, D: 1, M: 1, K: 3}
	s1 := SpreadStarts(cfg1, 4)
	if s1[0][0] != -4 || s1[2][0] != 4 {
		t.Fatalf("1-D spread = %v", s1)
	}
	// K=1 sits at the origin.
	single := SpreadStarts(core.Config{Dim: 2, D: 1, M: 1, K: 1}, 9)
	if !single[0].Equal(pt(0, 0)) {
		t.Fatalf("single start = %v", single[0])
	}
}

// refMove is the allocating MtC-k step MtCK.Move must reproduce bit for
// bit: fresh per-step buckets, median.Closest and geom.MoveToward. It
// moves pos in place (replacing its points) and returns it.
func refMove(cfg core.Config, pos, requests []geom.Point) []geom.Point {
	if len(requests) == 0 {
		return pos
	}
	assigned := make([][]geom.Point, len(pos))
	for _, v := range requests {
		bestJ, bestD := 0, math.Inf(1)
		for j, p := range pos {
			if d := geom.Dist(p, v); d < bestD {
				bestD, bestJ = d, j
			}
		}
		assigned[bestJ] = append(assigned[bestJ], v)
	}
	cap := cfg.OnlineCap()
	for j := range pos {
		batch := assigned[j]
		if len(batch) == 0 {
			continue
		}
		c := median.Closest(batch, pos[j], median.Options{})
		dist := geom.Dist(pos[j], c)
		speed := math.Min(1, float64(len(batch))/cfg.D)
		step := math.Min(speed*dist, cap)
		pos[j] = geom.MoveToward(pos[j], c, step)
	}
	return pos
}

func clonePoints(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}

// fleetBitsDiff describes the first coordinate where got and want differ
// at the float64-bit level, or returns "" when they hold the same bits.
func fleetBitsDiff(got, want []geom.Point) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d servers, reference has %d", len(got), len(want))
	}
	for j := range want {
		for k := range want[j] {
			if math.Float64bits(got[j][k]) != math.Float64bits(want[j][k]) {
				return fmt.Sprintf("server %d coord %d: %v, reference %v", j, k, got[j][k], want[j][k])
			}
		}
	}
	return ""
}

// randomBatch draws 0–40 requests in dim dimensions around one to three
// centres, sometimes all on one line and sometimes repeating an earlier
// request, so the shares reach every median path: single points,
// coincident and collinear sets, the 3-point closed form and Weiszfeld.
func randomBatch(r *xrand.Rand, dim int) []geom.Point {
	n := r.IntN(41)
	reqs := make([]geom.Point, n)
	line := r.Bernoulli(0.15)
	centres := make([]geom.Point, 1+r.IntN(3))
	for i := range centres {
		c := make(geom.Point, dim)
		for k := range c {
			c[k] = r.Range(-8, 8)
		}
		centres[i] = c
	}
	for i := range reqs {
		if i > 0 && r.Bernoulli(0.1) {
			reqs[i] = reqs[r.IntN(i)].Clone()
			continue
		}
		c := centres[r.IntN(len(centres))]
		v := make(geom.Point, dim)
		if line {
			s := r.NormMS(0, 3)
			for k := range v {
				v[k] = c[k] + s*float64(k+1)
			}
		} else {
			for k := range v {
				v[k] = r.NormMS(c[k], 1.5)
			}
		}
		reqs[i] = v
	}
	return reqs
}

// TestMtCKMatchesReference steps MtCK beside the allocating reference over
// seeded batches — 1–6 servers, 0–40 requests, dimensions 1–3 — and
// requires every coordinate to match bit for bit after every step,
// across a SnapshotState/RestoreState round trip mid-run.
func TestMtCKMatchesReference(t *testing.T) {
	const steps = 60
	for seed := uint64(1); seed <= 60; seed++ {
		r := xrand.New(seed)
		cfg := core.Config{Dim: 1 + r.IntN(3), D: r.Range(0.5, 4), M: r.Range(0.2, 2),
			Delta: r.Range(0, 1), K: 1 + r.IntN(6)}
		starts := SpreadStarts(cfg, 5)
		ref := clonePoints(starts)
		alg := NewMtCK()
		alg.Reset(cfg, starts)
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				blob, err := alg.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				alg = NewMtCK()
				alg.Reset(cfg, starts)
				if err := alg.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
			}
			reqs := randomBatch(r, cfg.Dim)
			if diff := fleetBitsDiff(alg.Move(reqs), refMove(cfg, ref, reqs)); diff != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, diff)
			}
		}
	}
}

// TestMtCKConcurrentControllers steps four controllers from four
// goroutines at once. They share median's pooled scratch, so under -race
// this checks the pool hands each call its own buffers; each step is
// checked against the reference.
func TestMtCKConcurrentControllers(t *testing.T) {
	const workers, steps = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 4}
			starts := SpreadStarts(cfg, 5)
			ref := clonePoints(starts)
			alg := NewMtCK()
			alg.Reset(cfg, starts)
			for step := 0; step < steps; step++ {
				reqs := randomBatch(r, cfg.Dim)
				if diff := fleetBitsDiff(alg.Move(reqs), refMove(cfg, ref, reqs)); diff != "" {
					t.Errorf("controller %d step %d: %s", seed, step, diff)
					return
				}
			}
		}(uint64(100 + w))
	}
	wg.Wait()
}

// TestMtCKMoveAllocFree pins the steady step at 0 allocs/op on a fixed
// 2-D batch whose per-server shares stay at 1, 2 and 5 requests (a single
// point, the collinear pair, Weiszfeld) while the servers close in on
// them — the 3-point closed form is the one share size that allocates.
func TestMtCKMoveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 4}
	alg := NewMtCK()
	alg.Reset(cfg, []geom.Point{{-20, 0}, {0, 20}, {20, 0}, {0, -20}})
	reqs := []geom.Point{
		{-19, 1},
		{1, 19}, {-1, 21},
		{21, 1}, {19, 0}, {20, 2}, {22, -1}, {20.5, -2},
	}
	alg.Move(reqs)
	allocs := testing.AllocsPerRun(200, func() { alg.Move(reqs) })
	if allocs != 0 {
		t.Fatalf("MtCK.Move allocates %v/op, want 0", allocs)
	}
}

// BenchmarkMtCKMove times one MtC-k step in the replay benchmark's
// per-shard shape: 4 servers in 2-D fed 32-request zipf batches.
func BenchmarkMtCKMove(b *testing.B) {
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 4}
	in := workload.WithRequests(workload.Zipf{}, 32).Generate(xrand.New(1), cfg, 1024)
	alg := NewMtCK()
	alg.Reset(cfg, SpreadStarts(cfg, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Move(in.Steps[i%len(in.Steps)].Requests)
	}
}
