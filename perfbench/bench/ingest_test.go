package main

import (
	"math"
	"testing"
)

func TestMaxRate(t *testing.T) {
	rates := []float64{100, 200, 300, 400, 500}
	ms := func(vs ...float64) []float64 {
		for i := range vs {
			vs[i] *= 1e6
		}
		return vs
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	// The p99 crosses 50ms halfway between the second and third rungs.
	if got := maxRate(rates[:4], ms(10, 30, 70, 90)); !near(got, 250) {
		t.Fatalf("maxRate = %v, want 250", got)
	}
	// One noisy rung is pooled with its neighbour instead of ending the
	// climb: the fit is 10, 42.5, 42.5, 45, 90.
	if got := maxRate(rates, ms(10, 55, 30, 45, 90)); !near(got, 400+100*5.0/45) {
		t.Fatalf("maxRate = %v, want %v", got, 400+100*5.0/45)
	}
	if got := maxRate(rates[:3], ms(10, 20, 30)); got != 300 {
		t.Fatalf("a ladder passed to the top reports %v, want 300", got)
	}
}

// TestLadderP99: per rung, the median trial; a rung that fell behind
// counts as twice the limit and an unreached one as unreached.
func TestLadderP99(t *testing.T) {
	ms := 1e6
	r := func(p99 float64, paced bool) rungStat { return rungStat{p99: p99 * ms, paced: paced} }
	trials := [][]rungStat{
		{r(10, true), r(30, true), r(60, true)},
		{r(12, true), r(45, false)},
		{r(11, true), r(40, true), r(70, true)},
	}
	got := ladderP99(trials)
	want := []float64{11 * ms, 40 * ms, 70 * ms, unreached}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("rung %d: p99 %v, want %v (all %v)", j, got[j], want[j], got[:len(want)])
		}
	}
}
