package geom

import "math"

// Segment is the closed line segment between A and B. A degenerate segment
// (A == B) is allowed and behaves as the single point A.
type Segment struct {
	A, B Point
}

// NewSegment returns the segment from a to b. It panics on a dimension
// mismatch.
func NewSegment(a, b Point) Segment {
	assertSameDim(a, b)
	return Segment{A: a.Clone(), B: b.Clone()}
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return Dist(s.A, s.B) }

// At returns the point A + t·(B-A) for t in [0,1]; t is clamped.
func (s Segment) At(t float64) Point {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return Lerp(s.A, s.B, t)
}

// ClosestTo returns the point of the segment closest to p, together with
// the parameter t in [0,1] such that the point equals At(t).
func (s Segment) ClosestTo(p Point) (Point, float64) {
	dir := s.B.Sub(s.A)
	den := dir.NormSq()
	if den == 0 {
		return s.A.Clone(), 0
	}
	t := p.Sub(s.A).Dot(dir) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Lerp(s.A, s.B, t), t
}

// DistTo returns the distance from p to the segment.
func (s Segment) DistTo(p Point) float64 {
	q, _ := s.ClosestTo(p)
	return Dist(p, q)
}

// Contains reports whether p lies on the segment within tolerance tol.
func (s Segment) Contains(p Point, tol float64) bool {
	return s.DistTo(p) <= tol
}

// Line is the infinite line through Origin with direction Dir (unit length).
type Line struct {
	Origin Point
	Dir    Point
}

// NewLine returns the line through a and b. It panics if a == b.
func NewLine(a, b Point) Line {
	assertSameDim(a, b)
	d := b.Sub(a)
	if d.NormSq() == 0 {
		panic("geom: NewLine requires two distinct points")
	}
	return Line{Origin: a.Clone(), Dir: d.Unit()}
}

// Project returns the orthogonal projection of p onto the line and the
// signed parameter t such that the projection equals Origin + t·Dir.
func (l Line) Project(p Point) (Point, float64) {
	t := p.Sub(l.Origin).Dot(l.Dir)
	return l.Origin.Add(l.Dir.Scale(t)), t
}

// DistTo returns the distance from p to the line.
func (l Line) DistTo(p Point) float64 {
	q, _ := l.Project(p)
	return Dist(p, q)
}

// Collinear reports whether all points lie on a common line, within
// absolute tolerance tol on the distance of each point from the best
// candidate line. Point sets of size <= 2 are always collinear. If the
// points are collinear (and not all coincident), the supporting line is
// returned with ok = true; for coincident point sets line.Dir is the zero
// vector and ok reports true.
func Collinear(pts []Point, tol float64) (Line, bool) {
	if len(pts) == 0 {
		panic("geom: Collinear of empty point set")
	}
	d := pts[0].Dim()
	// Find the point furthest from pts[0] to define a stable direction.
	var far Point
	maxD := 0.0
	for _, p := range pts {
		assertSameDim(pts[0], p)
		if dd := DistSq(pts[0], p); dd > maxD {
			maxD = dd
			far = p
		}
	}
	if len(pts) <= 2 {
		// One or two points are collinear by definition; avoid spurious
		// floating-point residue against a zero tolerance.
		if maxD == 0 {
			return Line{Origin: pts[0].Clone(), Dir: Zero(d)}, true
		}
		return NewLine(pts[0], far), true
	}
	if maxD == 0 {
		// All points coincide.
		return Line{Origin: pts[0].Clone(), Dir: Zero(d)}, true
	}
	line := NewLine(pts[0], far)
	for _, p := range pts {
		if line.DistTo(p) > tol {
			return Line{}, false
		}
	}
	return line, true
}

// Spread returns the maximum pairwise distance of the point set (its
// diameter). An empty set has spread 0.
func Spread(pts []Point) float64 {
	maxD := 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := Dist(pts[i], pts[j]); d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// Box is an axis-aligned bounding box.
type Box struct {
	Min, Max Point
}

// Bounds returns the axis-aligned bounding box of the points. It panics on
// an empty set.
func Bounds(pts []Point) Box {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	lo := pts[0].Clone()
	hi := pts[0].Clone()
	for _, p := range pts[1:] {
		assertSameDim(lo, p)
		for i := range p {
			lo[i] = math.Min(lo[i], p[i])
			hi[i] = math.Max(hi[i], p[i])
		}
	}
	return Box{Min: lo, Max: hi}
}

// Contains reports whether p lies in the box (inclusive), expanded by tol.
func (b Box) Contains(p Point, tol float64) bool {
	assertSameDim(b.Min, p)
	for i := range p {
		if p[i] < b.Min[i]-tol || p[i] > b.Max[i]+tol {
			return false
		}
	}
	return true
}

// Expand returns the box grown by pad on every side.
func (b Box) Expand(pad float64) Box {
	lo := b.Min.Clone()
	hi := b.Max.Clone()
	for i := range lo {
		lo[i] -= pad
		hi[i] += pad
	}
	return Box{Min: lo, Max: hi}
}

// Union returns the smallest box containing both b and c.
func (b Box) Union(c Box) Box {
	lo := b.Min.Clone()
	hi := b.Max.Clone()
	for i := range lo {
		lo[i] = math.Min(lo[i], c.Min[i])
		hi[i] = math.Max(hi[i], c.Max[i])
	}
	return Box{Min: lo, Max: hi}
}

// Center returns the center point of the box.
func (b Box) Center() Point { return Midpoint(b.Min, b.Max) }

// Diagonal returns the length of the box diagonal.
func (b Box) Diagonal() float64 { return Dist(b.Min, b.Max) }
