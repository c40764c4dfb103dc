package geom

import (
	"math"
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := NewSegment(NewPoint(0, 0), NewPoint(3, 4))
	if s.Length() != 5 {
		t.Fatalf("Length = %v", s.Length())
	}
	if !s.At(0).Equal(NewPoint(0, 0)) || !s.At(1).Equal(NewPoint(3, 4)) {
		t.Fatal("At endpoints wrong")
	}
	if !s.At(-5).Equal(NewPoint(0, 0)) || !s.At(5).Equal(NewPoint(3, 4)) {
		t.Fatal("At does not clamp")
	}
}

func TestSegmentClosestToInterior(t *testing.T) {
	s := NewSegment(NewPoint(0, 0), NewPoint(10, 0))
	q, tt := s.ClosestTo(NewPoint(4, 7))
	if !q.ApproxEqual(NewPoint(4, 0), 1e-12) || !approx(tt, 0.4, 1e-12) {
		t.Fatalf("ClosestTo = %v at t=%v", q, tt)
	}
}

func TestSegmentClosestToEndpoints(t *testing.T) {
	s := NewSegment(NewPoint(0, 0), NewPoint(10, 0))
	q, tt := s.ClosestTo(NewPoint(-5, 3))
	if !q.Equal(NewPoint(0, 0)) || tt != 0 {
		t.Fatalf("left clamp failed: %v t=%v", q, tt)
	}
	q, tt = s.ClosestTo(NewPoint(15, -3))
	if !q.Equal(NewPoint(10, 0)) || tt != 1 {
		t.Fatalf("right clamp failed: %v t=%v", q, tt)
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := NewSegment(NewPoint(2, 2), NewPoint(2, 2))
	q, tt := s.ClosestTo(NewPoint(5, 6))
	if !q.Equal(NewPoint(2, 2)) || tt != 0 {
		t.Fatalf("degenerate ClosestTo = %v t=%v", q, tt)
	}
	if s.DistTo(NewPoint(5, 6)) != 5 {
		t.Fatalf("degenerate DistTo = %v", s.DistTo(NewPoint(5, 6)))
	}
}

func TestSegmentContains(t *testing.T) {
	s := NewSegment(NewPoint(0, 0), NewPoint(10, 0))
	if !s.Contains(NewPoint(5, 0), 1e-9) {
		t.Fatal("midpoint not contained")
	}
	if s.Contains(NewPoint(5, 1), 1e-9) {
		t.Fatal("off-segment point contained")
	}
}

func TestLineProject(t *testing.T) {
	l := NewLine(NewPoint(0, 0), NewPoint(1, 0))
	q, tt := l.Project(NewPoint(3, 4))
	if !q.ApproxEqual(NewPoint(3, 0), 1e-12) || !approx(tt, 3, 1e-12) {
		t.Fatalf("Project = %v t=%v", q, tt)
	}
	if !approx(l.DistTo(NewPoint(3, 4)), 4, 1e-12) {
		t.Fatalf("DistTo = %v", l.DistTo(NewPoint(3, 4)))
	}
}

func TestLineProjectNegativeParam(t *testing.T) {
	l := NewLine(NewPoint(5, 5), NewPoint(6, 5))
	_, tt := l.Project(NewPoint(0, 0))
	if tt >= 0 {
		t.Fatalf("expected negative parameter, got %v", tt)
	}
}

func TestNewLinePanicsOnCoincident(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLine(a,a) did not panic")
		}
	}()
	NewLine(NewPoint(1, 1), NewPoint(1, 1))
}

func TestCollinearTrue(t *testing.T) {
	pts := []Point{NewPoint(0, 0), NewPoint(1, 1), NewPoint(2, 2), NewPoint(-3, -3)}
	line, ok := Collinear(pts, 1e-9)
	if !ok {
		t.Fatal("collinear points not detected")
	}
	for _, p := range pts {
		if line.DistTo(p) > 1e-9 {
			t.Fatalf("returned line misses point %v", p)
		}
	}
}

func TestCollinearFalse(t *testing.T) {
	pts := []Point{NewPoint(0, 0), NewPoint(1, 0), NewPoint(0, 1)}
	if _, ok := Collinear(pts, 1e-9); ok {
		t.Fatal("triangle reported collinear")
	}
}

func TestCollinearCoincident(t *testing.T) {
	pts := []Point{NewPoint(2, 3), NewPoint(2, 3), NewPoint(2, 3)}
	line, ok := Collinear(pts, 1e-9)
	if !ok {
		t.Fatal("coincident points not collinear")
	}
	if line.Dir.NormSq() != 0 {
		t.Fatalf("coincident set should have zero Dir, got %v", line.Dir)
	}
}

func TestCollinearPair(t *testing.T) {
	pts := []Point{NewPoint(1, 2), NewPoint(3, 4)}
	if _, ok := Collinear(pts, 0); !ok {
		t.Fatal("two points must be collinear")
	}
}

func TestCollinearSingle(t *testing.T) {
	if _, ok := Collinear([]Point{NewPoint(1, 1)}, 0); !ok {
		t.Fatal("single point must be collinear")
	}
}

func TestCollinearTolerance(t *testing.T) {
	pts := []Point{NewPoint(0, 0), NewPoint(10, 0), NewPoint(5, 0.001)}
	if _, ok := Collinear(pts, 1e-6); ok {
		t.Fatal("1e-3 deviation passed 1e-6 tolerance")
	}
	if _, ok := Collinear(pts, 0.01); !ok {
		t.Fatal("1e-3 deviation failed 1e-2 tolerance")
	}
}

func TestCollinear3D(t *testing.T) {
	pts := []Point{NewPoint(0, 0, 0), NewPoint(1, 2, 3), NewPoint(2, 4, 6)}
	if _, ok := Collinear(pts, 1e-9); !ok {
		t.Fatal("3-D collinear points not detected")
	}
	pts = append(pts, NewPoint(1, 0, 0))
	if _, ok := Collinear(pts, 1e-9); ok {
		t.Fatal("3-D non-collinear points reported collinear")
	}
}

func TestSpread(t *testing.T) {
	pts := []Point{NewPoint(0, 0), NewPoint(3, 4), NewPoint(1, 1)}
	if Spread(pts) != 5 {
		t.Fatalf("Spread = %v", Spread(pts))
	}
	if Spread(nil) != 0 {
		t.Fatal("Spread(nil) != 0")
	}
}

func TestBounds(t *testing.T) {
	pts := []Point{NewPoint(1, 5), NewPoint(-2, 3), NewPoint(0, 7)}
	b := Bounds(pts)
	if !b.Min.Equal(NewPoint(-2, 3)) || !b.Max.Equal(NewPoint(1, 7)) {
		t.Fatalf("Bounds = %v..%v", b.Min, b.Max)
	}
}

func TestBoxContains(t *testing.T) {
	b := Bounds([]Point{NewPoint(0, 0), NewPoint(10, 10)})
	if !b.Contains(NewPoint(5, 5), 0) {
		t.Fatal("interior point not contained")
	}
	if !b.Contains(NewPoint(0, 10), 0) {
		t.Fatal("corner not contained")
	}
	if b.Contains(NewPoint(11, 5), 0) {
		t.Fatal("exterior point contained")
	}
	if !b.Contains(NewPoint(10.5, 5), 1) {
		t.Fatal("tolerance ignored")
	}
}

func TestBoxExpandCenterDiagonal(t *testing.T) {
	b := Bounds([]Point{NewPoint(0, 0), NewPoint(2, 2)})
	e := b.Expand(1)
	if !e.Min.Equal(NewPoint(-1, -1)) || !e.Max.Equal(NewPoint(3, 3)) {
		t.Fatalf("Expand = %v..%v", e.Min, e.Max)
	}
	if !b.Center().Equal(NewPoint(1, 1)) {
		t.Fatalf("Center = %v", b.Center())
	}
	if !approx(b.Diagonal(), 2*math.Sqrt2, 1e-12) {
		t.Fatalf("Diagonal = %v", b.Diagonal())
	}
}

func TestBoxUnion(t *testing.T) {
	a := Bounds([]Point{NewPoint(0, 0), NewPoint(1, 1)})
	c := Bounds([]Point{NewPoint(5, -2), NewPoint(6, 0)})
	u := a.Union(c)
	if !u.Min.Equal(NewPoint(0, -2)) || !u.Max.Equal(NewPoint(6, 1)) {
		t.Fatalf("Union = %v..%v", u.Min, u.Max)
	}
}
