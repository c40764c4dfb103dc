// Zipfian arrivals and the drifting hotspot: the two workloads the
// scenario-lab matrix leans on hardest. Zipf models the classic popularity
// skew of real request logs (a few sites absorb most traffic); Drift is
// the adversarial pattern for a static shard layout — one tight hotspot
// sweeping across every shard boundary over the run.

package workload

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// Zipf draws each request from a fixed set of sites whose popularity
// follows a Zipf law: site of rank i receives traffic proportional to
// 1/i^S. A handful of head sites dominate — the request-log skew that
// makes uniform shard layouts waste capacity on cold regions.
type Zipf struct {
	// Sites is the number of fixed sites. Default 16.
	Sites int
	// S is the Zipf exponent (> 0; larger = more skew). Default 1.2.
	S float64
	// Half is the arena half-width over which sites are placed.
	// Default 25·m.
	Half float64
	// Sigma is the request scatter around a site. Default m.
	Sigma float64
	// Requests is the fixed per-step request count. Default 1.
	Requests int
	// PoissonMean, when positive, randomizes per-step counts.
	PoissonMean float64
}

// Name implements Generator.
func (z Zipf) Name() string { return "zipf" }

// Generate implements Generator.
func (z Zipf) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	sites := z.Sites
	if sites <= 0 {
		sites = 16
	}
	s := z.S
	if s <= 0 {
		s = 1.2
	}
	half := z.Half
	if half <= 0 {
		half = 25 * cfg.M
	}
	sigma := z.Sigma
	if sigma <= 0 {
		sigma = cfg.M
	}
	reqs := z.Requests
	if reqs <= 0 {
		reqs = 1
	}
	box := arena(cfg.Dim, half)
	centers := uniformPoints(r, sites, box)
	// Cumulative Zipf weights: cum[i] = Σ_{j<=i} 1/(j+1)^s, normalized.
	cum := make([]float64, sites)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	pool := countPool(cfg.Dim, T, reqs, z.PoissonMean)
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	for t := range in.Steps {
		pts := pool.take(drawCount(r, reqs, z.PoissonMean), T-t)
		for _, p := range pts {
			u := r.Float64()
			site := sort.SearchFloat64s(cum, u)
			if site >= sites {
				site = sites - 1
			}
			gaussianAround(r, p, centers[site], sigma, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}

// Drift sweeps one tight hotspot linearly across [-0.8·Half, 0.8·Half] on
// axis 0 over the whole run — the workload a static shard layout serves
// worst (every boundary is crossed exactly once) and the one dynamic
// rebalancing is built for.
type Drift struct {
	// Half is the sweep half-width. Default 25·m.
	Half float64
	// Sigma is the request scatter around the hotspot. Default m/2.
	Sigma float64
	// Requests is the fixed per-step request count. Default 1.
	Requests int
	// PoissonMean, when positive, randomizes per-step counts.
	PoissonMean float64
}

// Name implements Generator.
func (d Drift) Name() string { return "drift" }

// Generate implements Generator.
func (d Drift) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	half := d.Half
	if half <= 0 {
		half = 25 * cfg.M
	}
	sigma := d.Sigma
	if sigma <= 0 {
		sigma = cfg.M / 2
	}
	reqs := d.Requests
	if reqs <= 0 {
		reqs = 1
	}
	box := arena(cfg.Dim, half)
	pool := countPool(cfg.Dim, T, reqs, d.PoissonMean)
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	center := geom.Zero(cfg.Dim)
	for t := range in.Steps {
		frac := 0.0
		if T > 1 {
			frac = float64(t) / float64(T-1)
		}
		center[0] = half * (-0.8 + 1.6*frac)
		pts := pool.take(drawCount(r, reqs, d.PoissonMean), T-t)
		for _, p := range pts {
			gaussianAround(r, p, center, sigma, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}
