package median

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// Robustness tests: configurations that historically break naive Weiszfeld
// implementations — iterates landing on data points, near-collinear sets,
// extreme coordinate magnitudes, and heavy duplication.

func TestIterateOnDataPoint(t *testing.T) {
	// The centroid (initial iterate) coincides with an input point: the
	// Vardi–Zhang correction must step off it (or certify optimality)
	// rather than dividing by zero.
	pts := []geom.Point{
		pt(0, 0), pt(4, 0), pt(-4, 0), pt(0, 4), pt(0, -4),
	}
	// Centroid is (0,0) which is an input point AND the true median.
	set := Solve(pts, Options{})
	if !set.Seg.A.ApproxEqual(pt(0, 0), 1e-9) {
		t.Fatalf("median = %v, want origin", set.Seg.A)
	}
	if !set.Seg.A.IsFinite() {
		t.Fatal("non-finite median")
	}
}

func TestIterateOnNonOptimalDataPoint(t *testing.T) {
	// The centroid (0,0) is a data point but not the median: the unit
	// vectors from it to the other points sum to (√2, 0), longer than its
	// multiplicity 1. So the first step must take the Vardi–Zhang blend,
	// landing strictly between the centroid and the plain Weiszfeld point
	// (√2/(√2+4/3), 0) ≈ (0.5147, 0), and the iteration must then reach
	// the true median (1 − 1/√3, 0).
	pts := []geom.Point{pt(0, 0), pt(1, 1), pt(1, -1), pt(1, 0), pt(-3, 0)}
	y := geom.Centroid(pts)
	if !y.Equal(pts[0]) {
		t.Fatalf("centroid %v, want the data point %v", y, pts[0])
	}
	plain := math.Sqrt2 / (math.Sqrt2 + 4.0/3)
	next, done := weiszfeldStep(pts, y, 1e-14*geom.Spread(pts))
	if done || math.Abs(next[1]) > 1e-12 || next[0] <= 1e-9 || next[0] >= plain-1e-9 {
		t.Fatalf("first step = %v (done %v), want strictly between (0, 0) and (%.4f, 0)", next, done, plain)
	}
	set := Solve(pts, Options{})
	if want := pt(1-1/math.Sqrt(3), 0); !set.Seg.A.ApproxEqual(want, 1e-6) {
		t.Fatalf("median = %v, want %v", set.Seg.A, want)
	}
	got := Cost(set.Seg.A, pts)
	grid := gridSearch(pts, 50)
	if got > grid*(1+1e-3) {
		t.Fatalf("stuck on data point: cost %v vs grid %v", got, grid)
	}
}

func TestNearCollinear(t *testing.T) {
	// Points collinear up to 1e-9 jitter: either branch (collinear median
	// or Weiszfeld) must produce a near-optimal point, not NaN.
	r := xrand.New(81)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.IntN(6)
		pts := make([]geom.Point, n)
		for i := range pts {
			x := r.Range(-10, 10)
			pts[i] = pt(x, x*2+r.Range(-1e-9, 1e-9))
		}
		set := Solve(pts, Options{})
		if !set.Seg.A.IsFinite() {
			t.Fatalf("trial %d: non-finite median", trial)
		}
		got := Cost(set.Seg.A, pts)
		best := math.Inf(1)
		for _, p := range pts {
			if c := Cost(p, pts); c < best {
				best = c
			}
		}
		// The vertex minimum upper-bounds the optimum within factor ~2;
		// the computed median must not exceed the best vertex.
		if got > best*(1+1e-6) {
			t.Fatalf("trial %d: median cost %v > best vertex %v", trial, got, best)
		}
	}
}

func TestHugeCoordinates(t *testing.T) {
	pts := []geom.Point{
		pt(1e12, 1e12), pt(1e12+3, 1e12), pt(1e12, 1e12+4),
	}
	set := Solve(pts, Options{})
	if !set.Seg.A.IsFinite() {
		t.Fatal("non-finite median at large magnitude")
	}
	// The median must lie in the bounding box.
	if !geom.Bounds(pts).Contains(set.Seg.A, 1e-3) {
		t.Fatalf("median %v escaped the hull", set.Seg.A)
	}
}

func TestTinySpread(t *testing.T) {
	pts := []geom.Point{
		pt(1, 1), pt(1+1e-13, 1), pt(1, 1+1e-13),
	}
	set := Solve(pts, Options{})
	if !set.Seg.A.ApproxEqual(pt(1, 1), 1e-9) {
		t.Fatalf("tiny-spread median = %v", set.Seg.A)
	}
}

func TestHeavyDuplication(t *testing.T) {
	// 100 copies of one point plus 3 strays: the median is the duplicated
	// point exactly.
	pts := make([]geom.Point, 0, 103)
	for i := 0; i < 100; i++ {
		pts = append(pts, pt(2, 3))
	}
	pts = append(pts, pt(50, 0), pt(0, 50), pt(-50, -50))
	set := Solve(pts, Options{})
	if !set.Seg.A.ApproxEqual(pt(2, 3), 1e-9) {
		t.Fatalf("duplicated median = %v, want (2,3)", set.Seg.A)
	}
}

func TestManyPointsPerformance(t *testing.T) {
	// 10k random points must converge quickly (regression guard for the
	// iteration count).
	r := xrand.New(82)
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = pt(r.NormMS(0, 5), r.NormMS(0, 5))
	}
	set := Solve(pts, Options{})
	if !set.Seg.A.IsFinite() {
		t.Fatal("non-finite median")
	}
	// For a symmetric cloud the median is near the origin.
	if set.Seg.A.Norm() > 0.5 {
		t.Fatalf("median of symmetric cloud = %v, expected near origin", set.Seg.A)
	}
}

func TestClosestWithFarAnchor(t *testing.T) {
	// Anchor astronomically far away must still clamp to the segment end.
	pts := []geom.Point{pt(0.0), pt(1.0)}
	c := Closest(pts, pt(1e15), Options{})
	if !c.ApproxEqual(pt(1.0), 1e-6) {
		t.Fatalf("far-anchor Closest = %v", c)
	}
}
