package experiments

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/traceio"
	"repro/internal/xrand"
)

// e6 numerically verifies Lemma 6 — the geometric heart of the
// competitive analysis, illustrated by Figures 1 and 2 of the paper: for
// the collinear configuration P_Alg —a1→ P'_Alg —a2→ c and any P'_Opt
// with s2 = d(P'_Opt, c), the claim is
//
//	s2 ≤ (√δ/(1+δ/2))·a2  ⇒  h − q ≥ ((1+δ/2)/(1+δ))·a1,
//
// where h = d(P'_Opt, P_Alg) and q = d(P'_Opt, P'_Alg).
//
// Reproduction finding: the literal statement is off by a sub-1% margin.
// The proof takes the extremal placement of P'_Opt to be at 90° between s2
// and a2, but minimizing h−q over the s2-sphere analytically puts the
// worst case at cos θ = −s2(a1+2a2)/(2(a1+a2)a2) ≈ −s2/a2; in the regime
// a2 ≫ a1 the exact bound is h−q ≥ √(1−(s2/a2)²)·a1, which is slightly
// weaker than the claimed a1/√(1+(s2/a2)²). Tightening the premise
// coefficient from √δ/(1+δ/2) to √δ/(1+δ) restores the stated conclusion
// with strictly positive margin (verified here); all downstream O(·)
// results are unaffected since the paper does not optimize constants.
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Lemma 6 / Figures 1–2: geometric progress bound (literal vs corrected premise)",
		Claim: "Lemma 6: s2 ≤ √δ/(1+δ/2)·a2 ⇒ h−q ≥ (1+δ/2)/(1+δ)·a1 (literal; corrected premise uses √δ/(1+δ))",
		Run:   runE6,
	}
}

// lemma6Margin returns h−q minus the required bound for one sampled
// configuration with the given premise coefficient.
func lemma6Margin(r *xrand.Rand, delta, premiseCoeff float64) float64 {
	dim := 2 + r.IntN(2) // exercise ℝ² and ℝ³
	u := make(geom.Point, dim)
	r.UnitInto(u)
	a1 := r.Range(0.01, 10)
	// Log-uniform a2 so the critical regime a2 ≫ a1 is covered.
	a2 := math.Pow(10, r.Range(-2, 3))
	pAlg := randVec(r, dim, 5)
	pAlgNext := pAlg.Add(u.Scale(a1))
	c := pAlg.Add(u.Scale(a1 + a2))
	// Bias sampling toward the premise boundary where the minimum lives.
	frac := 1 - r.Float64()*r.Float64()
	s2 := frac * premiseCoeff * a2
	v := make(geom.Point, dim)
	r.UnitInto(v)
	pOptNext := c.Add(v.Scale(s2))
	h := geom.Dist(pOptNext, pAlg)
	q := geom.Dist(pOptNext, pAlgNext)
	need := (1 + delta/2) / (1 + delta)
	return (h - q) - need*a1
}

func runE6(cfg RunConfig) Result {
	cfg = cfg.withDefaults()
	deltas := []float64{1, 0.5, 0.25, 0.125, 0.0625}
	samplesPerDelta := cfg.scaleT(200000)

	table := traceio.Table{Columns: []string{
		"delta", "samples",
		"paper_violations", "paper_min_margin",
		"fixed_violations", "fixed_min_margin",
	}}
	type outcome struct {
		violPaper, violFixed int
		minPaper, minFixed   float64
	}
	results := sim.Parallel(len(deltas), cfg.Seed, func(i int, r *xrand.Rand) outcome {
		delta := deltas[i]
		paperCoeff := math.Sqrt(delta) / (1 + delta/2)
		fixedCoeff := math.Sqrt(delta) / (1 + delta)
		out := outcome{minPaper: math.Inf(1), minFixed: math.Inf(1)}
		for k := 0; k < samplesPerDelta; k++ {
			mp := lemma6Margin(r, delta, paperCoeff)
			if mp < out.minPaper {
				out.minPaper = mp
			}
			if mp < -1e-9 {
				out.violPaper++
			}
			mf := lemma6Margin(r, delta, fixedCoeff)
			if mf < out.minFixed {
				out.minFixed = mf
			}
			if mf < -1e-9 {
				out.violFixed++
			}
		}
		return out
	})
	totalFixedViolations := 0
	totalPaperViolations := 0
	for i, d := range deltas {
		o := results[i]
		table.Add(d, float64(samplesPerDelta),
			float64(o.violPaper), o.minPaper,
			float64(o.violFixed), o.minFixed)
		totalFixedViolations += o.violFixed
		totalPaperViolations += o.violPaper
	}
	findings := []string{
		"the literal Lemma 6 premise √δ/(1+δ/2) admits rare sub-1% violations in the regime a2 ≫ a1 (worst case at cosθ ≈ −s2/a2, not the 90° configuration used in the proof)",
		fmt.Sprintf("literal statement: %d violations across all δ (expected: small but nonzero)", totalPaperViolations),
	}
	if totalFixedViolations == 0 {
		findings = append(findings, "corrected premise √δ/(1+δ): zero violations — conclusion restored; downstream O(·) bounds unaffected")
	} else {
		findings = append(findings, fmt.Sprintf("corrected premise FAILED with %d violations — investigate", totalFixedViolations))
	}
	return Result{ID: "E6", Title: e6().Title, Claim: e6().Claim, Table: table, Findings: findings}
}

func randVec(r *xrand.Rand, dim int, scale float64) geom.Point {
	v := make(geom.Point, dim)
	for i := range v {
		v[i] = r.Range(-scale, scale)
	}
	return v
}
