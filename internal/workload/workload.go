// Package workload generates synthetic request sequences for the Mobile
// Server Problem, modeling the scenarios that motivate the paper: users of
// an edge service concentrated around a drifting hotspot, load that bursts
// between sites, uniform background traffic, and clustered demand.
//
// Every generator is deterministic given its random stream, so experiments
// are reproducible, and every generator emits instances that pass
// core.Instance.Validate.
//
// A generated instance's requests are carved from a few arrays allocated
// up front, not allocated point by point: keeping one step (or one
// request) alive keeps its whole array chunk alive. Each point is capped
// at its dimension and each step's Requests at its length, so an append
// reallocates instead of writing into a neighbour.
package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// Generator produces instances of a given length under a configuration.
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// Generate builds a T-step instance using randomness from r only.
	Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance
}

// arena returns a centered axis-aligned box of the given half-width.
func arena(dim int, half float64) geom.Box {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for i := range lo {
		lo[i] = -half
		hi[i] = half
	}
	return geom.Box{Min: lo, Max: hi}
}

// pointPool hands out each step's Requests from two arrays allocated up
// front: the point headers and their coordinates.
type pointPool struct {
	dim int
	// perStep is the expected requests per step; a refill covers the
	// steps left at this rate.
	perStep float64
	free    []geom.Point
}

// newPointPool returns a pool holding n points of dimension dim.
func newPointPool(dim, n int, perStep float64) *pointPool {
	return &pointPool{dim: dim, perStep: perStep, free: carve(n, dim)}
}

// countPool returns a pool for T steps of drawCount(fixed, poissonMean)
// requests: exact for a fixed count, sized from the mean otherwise.
func countPool(dim, T, fixed int, poissonMean float64) *pointPool {
	if poissonMean > 0 {
		mean := math.Max(poissonMean, 1)
		return newPointPool(dim, int(math.Ceil(float64(T)*mean)), mean)
	}
	return newPointPool(dim, T*fixed, float64(fixed))
}

// take returns n zero points for a step with stepsLeft steps to go, this
// one included. A pool that runs short refills with a chunk sized for
// the steps left, never with one point at a time.
func (p *pointPool) take(n, stepsLeft int) []geom.Point {
	if n > len(p.free) {
		p.free = carve(max(n, int(math.Ceil(float64(stepsLeft)*p.perStep))), p.dim)
	}
	pts := p.free[:n:n]
	p.free = p.free[n:]
	return pts
}

// carve returns n zero points of dimension dim cut from one array, each
// capped at dim.
func carve(n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	coords := make([]float64, n*dim)
	for i := range pts {
		pts[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return pts
}

// uniformIn sets p to a point drawn uniformly from the box.
func uniformIn(r *xrand.Rand, p geom.Point, b geom.Box) {
	for i := range p {
		p[i] = r.Range(b.Min[i], b.Max[i])
	}
}

// uniformPoints draws n points uniformly from the box.
func uniformPoints(r *xrand.Rand, n int, b geom.Box) []geom.Point {
	pts := carve(n, b.Min.Dim())
	for _, p := range pts {
		uniformIn(r, p, b)
	}
	return pts
}

// gaussianAround sets p to a draw from an isotropic normal around center,
// clamped to the box.
func gaussianAround(r *xrand.Rand, p, center geom.Point, sigma float64, b geom.Box) {
	for i := range p {
		x := center[i] + r.NormMS(0, sigma)
		if x < b.Min[i] {
			x = b.Min[i]
		}
		if x > b.Max[i] {
			x = b.Max[i]
		}
		p[i] = x
	}
}

// drawCount returns the number of requests for one step: Fixed if
// PoissonMean == 0, else 1 + Poisson(PoissonMean−1) (so steps are never
// empty unless Fixed == 0 and PoissonMean == 0).
func drawCount(r *xrand.Rand, fixed int, poissonMean float64) int {
	if poissonMean > 0 {
		n := 1 + r.Poisson(poissonMean-1)
		return n
	}
	return fixed
}

// Uniform scatters requests uniformly over a square arena: the
// "background traffic" workload on which no algorithm can exploit
// locality.
type Uniform struct {
	// Half is the arena half-width. Default 20·m at generation time.
	Half float64
	// Requests is the fixed per-step request count. Default 1.
	Requests int
	// PoissonMean, when positive, draws per-step counts from
	// 1+Poisson(PoissonMean−1) instead of the fixed count.
	PoissonMean float64
}

// Name implements Generator.
func (u Uniform) Name() string { return "uniform" }

// Generate implements Generator.
func (u Uniform) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	half := u.Half
	if half <= 0 {
		half = 20 * cfg.M
	}
	reqs := u.Requests
	if reqs <= 0 {
		reqs = 1
	}
	box := arena(cfg.Dim, half)
	pool := countPool(cfg.Dim, T, reqs, u.PoissonMean)
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	for t := range in.Steps {
		pts := pool.take(drawCount(r, reqs, u.PoissonMean), T-t)
		for _, p := range pts {
			uniformIn(r, p, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}

// Hotspot concentrates requests around a center that random-walks at
// bounded speed — the paper's edge-computing picture of users drifting
// through a city. Speed defaults to the offline cap m, making the hotspot
// exactly followable by OPT.
type Hotspot struct {
	// Half is the arena half-width (the hotspot reflects at the border).
	// Default 30·m.
	Half float64
	// Sigma is the request scatter around the hotspot. Default 2·m.
	Sigma float64
	// Speed is the hotspot's per-step drift. Default m.
	Speed float64
	// Requests is the fixed per-step count. Default 1.
	Requests int
	// PoissonMean, when positive, randomizes per-step counts.
	PoissonMean float64
}

// Name implements Generator.
func (h Hotspot) Name() string { return "hotspot" }

// Generate implements Generator.
func (h Hotspot) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	half := h.Half
	if half <= 0 {
		half = 30 * cfg.M
	}
	sigma := h.Sigma
	if sigma <= 0 {
		sigma = 2 * cfg.M
	}
	speed := h.Speed
	if speed <= 0 {
		speed = cfg.M
	}
	reqs := h.Requests
	if reqs <= 0 {
		reqs = 1
	}
	box := arena(cfg.Dim, half)
	pool := countPool(cfg.Dim, T, reqs, h.PoissonMean)
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	center := geom.Zero(cfg.Dim)
	heading := geom.Zero(cfg.Dim)
	r.UnitInto(heading)
	for t := range in.Steps {
		// Drift with occasional direction changes; reflect at the border,
		// then clamp. The conversion keeps the product rounded on its
		// own: Go may fuse a multiply-add into one FMA, but not across
		// an explicit conversion.
		if r.Bernoulli(0.05) {
			r.UnitInto(heading)
		}
		for i := range center {
			center[i] += float64(speed * heading[i])
			if center[i] < box.Min[i] {
				center[i] = 2*box.Min[i] - center[i]
				heading[i] = -heading[i]
			}
			if center[i] > box.Max[i] {
				center[i] = 2*box.Max[i] - center[i]
				heading[i] = -heading[i]
			}
			if center[i] < box.Min[i] {
				center[i] = box.Min[i]
			}
			if center[i] > box.Max[i] {
				center[i] = box.Max[i]
			}
		}
		pts := pool.take(drawCount(r, reqs, h.PoissonMean), T-t)
		for _, p := range pts {
			gaussianAround(r, p, center, sigma, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}

// Clusters draws each step's requests from one of K fixed Gaussian
// clusters, switching clusters with a small probability per step — load
// concentrated at a few sites (data centers, road junctions).
type Clusters struct {
	// K is the number of clusters. Default 3.
	K int
	// Half is the arena half-width over which cluster centers are placed.
	// Default 25·m.
	Half float64
	// Sigma is the scatter within a cluster. Default m.
	Sigma float64
	// SwitchProb is the per-step probability of jumping to another
	// cluster. Default 0.02.
	SwitchProb float64
	// Requests is the fixed per-step count. Default 1.
	Requests int
	// PoissonMean, when positive, randomizes per-step counts.
	PoissonMean float64
}

// Name implements Generator.
func (c Clusters) Name() string { return "clusters" }

// Generate implements Generator.
func (c Clusters) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	k := c.K
	if k <= 0 {
		k = 3
	}
	half := c.Half
	if half <= 0 {
		half = 25 * cfg.M
	}
	sigma := c.Sigma
	if sigma <= 0 {
		sigma = cfg.M
	}
	switchProb := c.SwitchProb
	if switchProb <= 0 {
		switchProb = 0.02
	}
	reqs := c.Requests
	if reqs <= 0 {
		reqs = 1
	}
	box := arena(cfg.Dim, half)
	centers := uniformPoints(r, k, box)
	cur := r.IntN(k)
	pool := countPool(cfg.Dim, T, reqs, c.PoissonMean)
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	for t := range in.Steps {
		if r.Bernoulli(switchProb) {
			cur = r.IntN(k)
		}
		pts := pool.take(drawCount(r, reqs, c.PoissonMean), T-t)
		for _, p := range pts {
			gaussianAround(r, p, centers[cur], sigma, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}

// Burst alternates a quiet phase (Rmin requests near one site) with a
// burst phase (Rmax requests near another site), stressing exactly the
// Rmax/Rmin imbalance of Theorem 2.
type Burst struct {
	// QuietLen and BurstLen are the phase lengths. Defaults 20 and 5.
	QuietLen, BurstLen int
	// Rmin and Rmax are the per-step counts in each phase. Defaults 1, 8.
	Rmin, Rmax int
	// Spread is the distance between the two sites. Default 15·m.
	Spread float64
	// Sigma is the scatter around each site. Default m/2.
	Sigma float64
}

// Name implements Generator.
func (b Burst) Name() string { return "burst" }

// Generate implements Generator.
func (b Burst) Generate(r *xrand.Rand, cfg core.Config, T int) *core.Instance {
	quiet, burst := b.QuietLen, b.BurstLen
	if quiet <= 0 {
		quiet = 20
	}
	if burst <= 0 {
		burst = 5
	}
	rmin, rmax := b.Rmin, b.Rmax
	if rmin <= 0 {
		rmin = 1
	}
	if rmax <= 0 {
		rmax = 8
	}
	spread := b.Spread
	if spread <= 0 {
		spread = 15 * cfg.M
	}
	sigma := b.Sigma
	if sigma <= 0 {
		sigma = cfg.M / 2
	}
	box := arena(cfg.Dim, spread*2)
	siteA := geom.Zero(cfg.Dim)
	siteB := geom.Zero(cfg.Dim)
	siteB[0] = spread
	quietSteps := T/(quiet+burst)*quiet + min(T%(quiet+burst), quiet)
	pool := newPointPool(cfg.Dim, quietSteps*rmin+(T-quietSteps)*rmax, float64(rmax))
	in := &core.Instance{Config: cfg, Start: geom.Zero(cfg.Dim), Steps: make([]core.Step, T)}
	for t := range in.Steps {
		phasePos := t % (quiet + burst)
		site, n := siteA, rmin
		if phasePos >= quiet {
			site, n = siteB, rmax
		}
		pts := pool.take(n, T-t)
		for _, p := range pts {
			gaussianAround(r, p, site, sigma, box)
		}
		in.Steps[t].Requests = pts
	}
	return in
}

// Registry returns the standard named workloads used by the comparison
// experiments.
func Registry() []Generator {
	return []Generator{Uniform{}, Hotspot{}, Clusters{}, Burst{}, Zipf{}, Drift{}}
}

// WithRequests returns a copy of a registry generator with its fixed
// per-step request count set to n (n <= 0 keeps the generator's default).
// Callers that look generators up ByName use it to dial the load without
// knowing the concrete type.
func WithRequests(g Generator, n int) Generator {
	if n <= 0 {
		return g
	}
	switch w := g.(type) {
	case Uniform:
		w.Requests = n
		return w
	case Hotspot:
		w.Requests = n
		return w
	case Clusters:
		w.Requests = n
		return w
	case Burst:
		w.Rmin = n
		w.Rmax = 8 * n
		return w
	case Zipf:
		w.Requests = n
		return w
	case Drift:
		w.Requests = n
		return w
	default:
		return g
	}
}

// ByName returns the registry generator with the given name.
func ByName(name string) (Generator, error) {
	for _, g := range Registry() {
		if g.Name() == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown generator %q", name)
}
