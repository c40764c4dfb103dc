package workload

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestGenerateAllocsIndependentOfT pins that an instance's allocations
// do not grow with its length: every step's requests are carved from
// arrays sized up front.
func TestGenerateAllocsIndependentOfT(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budget is not measurable under -race (the race runtime allocates)")
	}
	cfg := cfg2D()
	allocs := func(g Generator, T int) float64 {
		return testing.AllocsPerRun(5, func() { g.Generate(xrand.New(1), cfg, T) })
	}
	for _, g := range Registry() {
		g := WithRequests(g, 8)
		if short, long := allocs(g, 64), allocs(g, 4096); math.Abs(long-short) > 2 {
			t.Errorf("%s: %v allocs at T 64 but %v at T 4096", g.Name(), short, long)
		}
	}
}

// BenchmarkGenerate times one 4096-step, 32-request 2-D instance per
// registry generator.
func BenchmarkGenerate(b *testing.B) {
	cfg := cfg2D()
	for _, g := range Registry() {
		g := WithRequests(g, 32)
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Generate(xrand.New(1), cfg, 4096)
			}
		})
	}
}
