package median

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geom"
)

// ClosestInto is the allocation-free Closest used by the serving hot path:
// it computes the same point — bit-identical arithmetic on every path —
// but writes the result into dst (grown as needed) and keeps all solver
// intermediates in a pooled scratch area instead of allocating per call.
//
// In two dimensions, the serving stack's, the Weiszfeld loop runs on
// local variables instead of the scratch buffers: every sum starts at 0
// and adds point by point in the generic loop's order, so each rounding
// matches. The bit-identity with Closest is pinned on linux/amd64, where
// Go never fuses a multiply and an add; on platforms whose compiler may
// contract them into FMA instructions (arm64), the two loops can be
// contracted differently and the last bit may differ.
//
// The one exception is the non-collinear 3-point fast path, which still
// allocates inside the closed-form Fermat–Torricelli construction; steady
// loops that must stay at 0 allocs/op should batch r != 3 requests.
//
//moblint:hotpath
func ClosestInto(dst geom.Point, pts []geom.Point, anchor geom.Point, opts Options) geom.Point {
	if len(pts) == 0 {
		panic("median: ClosestInto on empty point set")
	}
	o := opts.withDefaults()
	if len(pts) == 1 {
		return geom.CopyInto(dst, pts[0])
	}
	spread := geom.Spread(pts)
	if spread == 0 {
		return geom.CopyInto(dst, pts[0])
	}
	sc := scratchPool.Get().(*scratch)
	if sc.collinear(pts, o.CollinearTol*spread) {
		dst = sc.collinearClosest(dst, pts, anchor)
		scratchPool.Put(sc)
		return dst
	}
	if len(pts) == 3 {
		scratchPool.Put(sc)
		c := ThreePoints(pts[0], pts[1], pts[2])
		return geom.CopyInto(dst, c)
	}
	dst = sc.weiszfeld(dst, pts, o, spread)
	scratchPool.Put(sc)
	return dst
}

// scratch holds every intermediate the solver needs, pooled so repeated
// ClosestInto calls allocate nothing once the buffers have grown to the
// working dimension.
type scratch struct {
	dir, a, b         geom.Point
	y, next, numer, r geom.Point
	ts                []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func resizePoint(p geom.Point, d int) geom.Point {
	if cap(p) < d {
		return make(geom.Point, d)
	}
	return p[:d]
}

// collinear mirrors geom.Collinear's arithmetic without allocating. On a
// collinear set it returns true with the supporting line stored as
// (pts[0], sc.dir); the caller guarantees the set is not coincident
// (spread > 0), so the direction is always well-defined.
func (sc *scratch) collinear(pts []geom.Point, tol float64) bool {
	d := pts[0].Dim()
	var far geom.Point
	maxD := 0.0
	for _, p := range pts {
		if dd := geom.DistSq(pts[0], p); dd > maxD {
			maxD = dd
			far = p
		}
	}
	// dir = (far - pts[0]).Unit(), with Sub/NormSq/Scale's exact order.
	o := pts[0]
	sc.dir = resizePoint(sc.dir, d)
	dir := sc.dir
	normSq := 0.0
	for k := range dir {
		v := far[k] - o[k]
		dir[k] = v
		normSq += v * v
	}
	inv := 1 / math.Sqrt(normSq)
	for k := range dir {
		dir[k] = inv * dir[k]
	}
	if len(pts) <= 2 {
		return true
	}
	for _, p := range pts {
		// line.DistTo(p) with Project/Dist's exact arithmetic.
		t := 0.0
		for k := range p {
			t += (p[k] - o[k]) * dir[k]
		}
		distSq := 0.0
		for k := range p {
			dd := p[k] - (o[k] + t*dir[k])
			distSq += dd * dd
		}
		if math.Sqrt(distSq) > tol {
			return false
		}
	}
	return true
}

// lineAt writes Origin + t·Dir into dst (the collinearMedian "at" helper).
func (sc *scratch) lineAt(dst geom.Point, origin geom.Point, t float64) geom.Point {
	dst = resizePoint(dst, len(origin))
	for k := range dst {
		dst[k] = origin[k] + t*sc.dir[k]
	}
	return dst
}

// collinearClosest mirrors collinearMedian followed by the Closest
// tie-break, using the line sc.collinear stored.
func (sc *scratch) collinearClosest(dst geom.Point, pts []geom.Point, anchor geom.Point) geom.Point {
	o := pts[0]
	dir := sc.dir
	n := len(pts)
	if cap(sc.ts) < n {
		sc.ts = make([]float64, n)
	}
	ts := sc.ts[:n]
	for i, p := range pts {
		t := 0.0
		for k := range p {
			t += (p[k] - o[k]) * dir[k]
		}
		ts[i] = t
	}
	sort.Float64s(ts)
	if n%2 == 1 {
		return sc.lineAt(dst, o, ts[n/2])
	}
	lo, hi := ts[n/2-1], ts[n/2]
	if lo == hi {
		return sc.lineAt(dst, o, lo)
	}
	// Segment [at(lo), at(hi)]; pick its point closest to anchor with
	// geom.Segment.ClosestTo's exact arithmetic.
	sc.a = sc.lineAt(sc.a, o, lo)
	sc.b = sc.lineAt(sc.b, o, hi)
	a, b := sc.a, sc.b
	den := 0.0
	for k := range a {
		v := b[k] - a[k]
		den += v * v
	}
	if den == 0 {
		return geom.CopyInto(dst, a)
	}
	t := 0.0
	for k := range a {
		t += (anchor[k] - a[k]) * (b[k] - a[k])
	}
	t /= den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return geom.LerpInto(dst, a, b, t)
}

// weiszfeld mirrors the allocating weiszfeld/weiszfeldStep pair with the
// iterates, numerator, and residual kept in scratch buffers, or, in two
// dimensions, in weiszfeld2D's local variables.
func (sc *scratch) weiszfeld(dst geom.Point, pts []geom.Point, o Options, spread float64) geom.Point {
	d := pts[0].Dim()
	if d == 2 {
		return weiszfeld2D(dst, pts, o, spread)
	}
	sc.y = resizePoint(sc.y, d)
	sc.next = resizePoint(sc.next, d)
	sc.numer = resizePoint(sc.numer, d)
	sc.r = resizePoint(sc.r, d)
	y, next := sc.y, sc.next

	// Start at the centroid (geom.Centroid's sum-then-scale order).
	for k := range y {
		y[k] = 0
	}
	for _, p := range pts {
		for k := range y {
			y[k] += p[k]
		}
	}
	s := 1 / float64(len(pts))
	for k := range y {
		y[k] = s * y[k]
	}

	tol := o.Tol * spread
	snapTol := 1e-14 * spread
	res := y
	for iter := 0; iter < o.MaxIter; iter++ {
		done := sc.weiszfeldStepInto(next, pts, y, snapTol)
		if done || geom.Dist(y, next) <= tol {
			res = next
			break
		}
		y, next = next, y
		res = y
	}
	// y and next stay two distinct buffers across the swaps; keep both for
	// the next pooled use.
	sc.y, sc.next = y, next
	return geom.CopyInto(dst, res)
}

// weiszfeldStepInto performs one iteration from y, writing the new iterate
// into next; done reports that next is optimal and iteration should stop.
// The arithmetic matches weiszfeldStep operation for operation.
func (sc *scratch) weiszfeldStepInto(next geom.Point, pts []geom.Point, y geom.Point, snapTol float64) bool {
	d := len(y)
	numer, r := sc.numer, sc.r
	for k := 0; k < d; k++ {
		numer[k] = 0
		r[k] = 0
	}
	denom := 0.0
	eta := 0.0
	for _, v := range pts {
		di := geom.Dist(y, v)
		if di <= snapTol {
			eta++
			continue
		}
		w := 1 / di
		denom += w
		for k := 0; k < d; k++ {
			numer[k] += v[k] * w
			r[k] += (v[k] - y[k]) * w
		}
	}
	if denom == 0 {
		copy(next, y)
		return true
	}
	// tPlain = numer.Scale(1/denom)
	inv := 1 / denom
	if eta == 0 {
		for k := 0; k < d; k++ {
			next[k] = inv * numer[k]
		}
		return false
	}
	rNorm := 0.0
	for k := 0; k < d; k++ {
		rNorm += r[k] * r[k]
	}
	rNorm = math.Sqrt(rNorm)
	if rNorm <= eta {
		copy(next, y)
		return true
	}
	beta := eta / rNorm
	// tPlain.Scale(1-beta).Add(y.Scale(beta))
	for k := 0; k < d; k++ {
		next[k] = (1-beta)*(inv*numer[k]) + beta*y[k]
	}
	return false
}

// weiszfeld2D is weiszfeld for d = 2 with the iterate, the step's sums,
// the Vardi–Zhang blend and the convergence distance all in local
// variables. Each expression is the generic loop's, coordinate by
// coordinate: sums start at 0 and add point by point in the same order,
// so every intermediate rounds exactly as there.
func weiszfeld2D(dst geom.Point, pts []geom.Point, o Options, spread float64) geom.Point {
	y0, y1 := 0.0, 0.0
	for _, p := range pts {
		y0 += p[0]
		y1 += p[1]
	}
	s := 1 / float64(len(pts))
	y0, y1 = s*y0, s*y1

	tol := o.Tol * spread
	snapTol := 1e-14 * spread
	for iter := 0; iter < o.MaxIter; iter++ {
		// One weiszfeldStepInto from (y0, y1) to (n0, n1).
		numer0, numer1, r0, r1 := 0.0, 0.0, 0.0, 0.0
		denom, eta := 0.0, 0.0
		for _, v := range pts {
			v0, v1 := v[0], v[1]
			d0, d1 := y0-v0, y1-v1
			distSq := 0.0
			distSq += d0 * d0
			distSq += d1 * d1
			di := math.Sqrt(distSq)
			if di <= snapTol {
				eta++
				continue
			}
			w := 1 / di
			denom += w
			numer0 += v0 * w
			r0 += (v0 - y0) * w
			numer1 += v1 * w
			r1 += (v1 - y1) * w
		}
		if denom == 0 {
			break // every point coincides with y, which is optimal
		}
		inv := 1 / denom
		n0, n1 := inv*numer0, inv*numer1
		if eta > 0 {
			// Vardi–Zhang: y is an input point of multiplicity eta; it is
			// optimal iff ||r|| <= eta, else blend the plain step with y.
			rNorm := 0.0
			rNorm += r0 * r0
			rNorm += r1 * r1
			rNorm = math.Sqrt(rNorm)
			if rNorm <= eta {
				break
			}
			beta := eta / rNorm
			n0 = (1-beta)*n0 + beta*y0
			n1 = (1-beta)*n1 + beta*y1
		}
		// geom.Dist(y, next) <= tol
		d0, d1 := y0-n0, y1-n1
		moveSq := 0.0
		moveSq += d0 * d0
		moveSq += d1 * d1
		y0, y1 = n0, n1
		if math.Sqrt(moveSq) <= tol {
			break
		}
	}
	dst = resizePoint(dst, 2)
	dst[0], dst[1] = y0, y1
	return dst
}
