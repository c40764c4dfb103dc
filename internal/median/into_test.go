package median

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// requireBitEqual asserts got and want match coordinate for coordinate at
// the float64-bit level — the contract ClosestInto makes with Closest is
// bit-identical arithmetic, not approximate agreement, because a cluster
// mirrors positions across transports and processes by value.
func requireBitEqual(t *testing.T, name string, got, want geom.Point) {
	t.Helper()
	if got.Dim() != want.Dim() {
		t.Fatalf("%s: dim %d != %d", name, got.Dim(), want.Dim())
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: coord %d: %x != %x (%v vs %v)",
				name, k, math.Float64bits(got[k]), math.Float64bits(want[k]), got[k], want[k])
		}
	}
}

// TestClosestIntoMatchesClosest pins ClosestInto ≡ Closest bitwise across
// every solver path: single point, coincident set, two points, collinear
// odd and even (both the lo==hi degenerate and the segment tie-break),
// three points collinear and non-collinear, and the n>3 Weiszfeld loop —
// in 2-D, the local-variable loop, through the first iterate landing on an
// optimal input point, the Vardi–Zhang blend off a non-optimal one, heavy
// duplicates, extreme magnitudes, a stop by iteration count, and seeded
// clustered sets.
func TestClosestIntoMatchesClosest(t *testing.T) {
	anchor := geom.Point{0.3, -1.7}
	type row struct {
		name string
		pts  []geom.Point
		opts Options
	}
	plain := []geom.Point{{0, 0}, {4, 0}, {1, 3}, {-2, 1}, {3, 3}}
	// In each set below the centroid, the first iterate, is the set's
	// first point. In onOptimal, TestIterateOnDataPoint's set, and in
	// onResidual the unit vectors from the origin sum to less than 1 (0
	// and ≈0.44), so the first step certifies the origin optimal. In
	// onNonOptimal, TestIterateOnNonOptimalDataPoint's set, they sum to
	// √2 and in offOptimal to ≈2.95, so the step takes the Vardi–Zhang
	// blend; offOptimal sits off the origin so that the blend's y terms
	// are not zero.
	onOptimal := []geom.Point{{0, 0}, {4, 0}, {-4, 0}, {0, 4}, {0, -4}}
	onResidual := []geom.Point{{0, 0}, {6, 1}, {6, -1}, {-3, 3}, {-3, -3}, {-6, 0}}
	onNonOptimal := []geom.Point{{0, 0}, {1, 1}, {1, -1}, {1, 0}, {-3, 0}}
	offOptimal := []geom.Point{{0.3, -1.7}, {1.3, -1.6}, {1.3, -1.8}, {1.3, -1.5}, {1.3, -1.9}, {-3.7, -1.7}}
	cases := []row{
		{name: "single", pts: []geom.Point{{1.5, 2.5}}},
		{name: "coincident", pts: []geom.Point{{1, 1}, {1, 1}, {1, 1}}},
		{name: "two-points", pts: []geom.Point{{0, 0}, {2, 4}}},
		{name: "collinear-odd", pts: []geom.Point{{0, 0}, {1, 1}, {5, 5}}},
		{name: "collinear-even-distinct", pts: []geom.Point{{0, 0}, {1, 1}, {3, 3}, {9, 9}}},
		{name: "collinear-even-tied", pts: []geom.Point{{0, 0}, {2, 2}, {2, 2}, {9, 9}}},
		{name: "three-noncollinear", pts: []geom.Point{{0, 0}, {4, 0}, {1, 3}}},
		{name: "weiszfeld", pts: plain},
		{name: "iterate-on-optimal-point", pts: onOptimal},
		{name: "iterate-on-optimal-point-residual", pts: onResidual},
		{name: "iterate-on-non-optimal-point", pts: onNonOptimal},
		{name: "vardi-zhang-blend", pts: offOptimal},
		{name: "heavy-duplicates", pts: heavyDuplicates()},
		{name: "duplicated-stray", pts: []geom.Point{{0, 0}, {0, 0}, {5, 1}, {5, 1}, {5, 1}, {-1, 4}}},
		{name: "huge", pts: []geom.Point{{1e12, 1e12}, {1e12 + 3, 1e12}, {1e12, 1e12 + 4}, {1e12 + 1, 1e12 + 1}}},
		{name: "huge-150", pts: []geom.Point{{1e150, -1e150}, {3e150, 0}, {0, 2e150}, {-1e150, 1e149}}},
		{name: "tiny-150", pts: []geom.Point{{1e-150, -1e-150}, {3e-150, 0}, {0, 2e-150}, {-1e-150, 1e-151}}},
		{name: "tiny-spread", pts: []geom.Point{{1, 1}, {1 + 1e-13, 1}, {1, 1 + 1e-13}, {1 + 1e-13, 1 + 2e-13}}},
		{name: "mixed-scales", pts: []geom.Point{{1e8, 0}, {0, 1e-8}, {-1e-8, 3}, {2, -1e8}, {7, 7}}},
	}
	for it := 1; it <= 5; it++ {
		for _, base := range []row{{"weiszfeld", plain, Options{}}, {"blend", offOptimal, Options{}}} {
			cases = append(cases, row{fmt.Sprintf("%s-maxiter-%d", base.name, it), base.pts, Options{MaxIter: it}})
		}
	}
	r := xrand.New(22)
	for n := 4; n <= 64; n++ {
		cases = append(cases, row{name: fmt.Sprintf("clustered-%d", n), pts: clustered(r, n)})
	}
	for i := 0; i < 16; i++ {
		pts := centredOnFirst(r, 4+r.IntN(8))
		cases = append(cases,
			row{name: fmt.Sprintf("centred-%d", i), pts: pts},
			row{name: fmt.Sprintf("centred-%d-maxiter-1", i), pts: pts, opts: Options{MaxIter: 1}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := Closest(tc.pts, anchor, tc.opts)
			got := ClosestInto(nil, tc.pts, anchor, tc.opts)
			requireBitEqual(t, tc.name, got, want)
			// Repeat through the pool with a reused destination: pooled
			// scratch state from the previous call must not leak in.
			reuse := make(geom.Point, 0, 8)
			for i := 0; i < 3; i++ {
				reuse = ClosestInto(reuse, tc.pts, anchor, tc.opts)
				requireBitEqual(t, tc.name+" reused", reuse, want)
			}
		})
	}
}

// heavyDuplicates is TestHeavyDuplication's set: 100 copies of one point
// plus three strays, so most iterates snap onto the duplicated point.
func heavyDuplicates() []geom.Point {
	pts := make([]geom.Point, 0, 103)
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{2, 3})
	}
	return append(pts, geom.Point{50, 0}, geom.Point{0, 50}, geom.Point{-50, -50})
}

// centredOnFirst draws n 2-D points whose centroid is, up to rounding far
// below the solver's snap tolerance, the first point: the first iterate
// lands on it, and the step either certifies it optimal or takes the
// Vardi–Zhang blend off it.
func centredOnFirst(r *xrand.Rand, n int) []geom.Point {
	p := geom.Point{r.Range(-5, 5), r.Range(-5, 5)}
	pts := []geom.Point{p}
	sum := geom.Point{0, 0}
	for i := 1; i < n-1; i++ {
		q := geom.Point{p[0] + r.Range(0.5, 3), p[1] + r.NormMS(0, 2)}
		sum[0] += q[0] - p[0]
		sum[1] += q[1] - p[1]
		pts = append(pts, q)
	}
	return append(pts, geom.Point{p[0] - sum[0], p[1] - sum[1]})
}

// clustered draws n 2-D points around one to three centres, repeating an
// earlier point now and then, the shape of a serving step's share.
func clustered(r *xrand.Rand, n int) []geom.Point {
	centres := make([]geom.Point, 1+r.IntN(3))
	for i := range centres {
		centres[i] = geom.Point{r.Range(-20, 20), r.Range(-20, 20)}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if i > 0 && r.Bernoulli(0.1) {
			pts[i] = pts[r.IntN(i)].Clone()
			continue
		}
		c := centres[r.IntN(len(centres))]
		pts[i] = geom.Point{r.NormMS(c[0], 1), r.NormMS(c[1], 1)}
	}
	return pts
}

// TestClosestIntoMatchesClosestRandom hammers the equivalence over random
// sets of every size 1..12 in 1–4 dimensions, interleaving calls so the
// pooled scratch is constantly re-entered at different shapes.
func TestClosestIntoMatchesClosestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst geom.Point
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		n := 1 + rng.Intn(12)
		pts := make([]geom.Point, n)
		for i := range pts {
			p := make(geom.Point, dim)
			for k := range p {
				p[k] = rng.NormFloat64() * 10
			}
			pts[i] = p
		}
		anchor := make(geom.Point, dim)
		for k := range anchor {
			anchor[k] = rng.NormFloat64() * 10
		}
		want := Closest(pts, anchor, Options{})
		dst = ClosestInto(dst, pts, anchor, Options{})
		requireBitEqual(t, "random", dst, want)
	}
}

// TestClosestIntoAllocFree pins the pooled-path allocation contract on
// the shapes the serving loop hits: after warmup, collinear sets and
// Weiszfeld sets (n != 3 non-collinear) run at 0 allocs/op.
func TestClosestIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	anchor := geom.Point{0.3, -1.7}
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{
		{"collinear", []geom.Point{{0, 0}, {1, 1}, {3, 3}, {9, 9}}},
		{"weiszfeld", []geom.Point{{0, 0}, {4, 0}, {1, 3}, {-2, 1}, {3, 3}}},
	} {
		dst := ClosestInto(nil, tc.pts, anchor, Options{})
		allocs := testing.AllocsPerRun(200, func() {
			dst = ClosestInto(dst, tc.pts, anchor, Options{})
		})
		if allocs != 0 {
			t.Errorf("%s: ClosestInto allocates %v/op, want 0", tc.name, allocs)
		}
	}
}
