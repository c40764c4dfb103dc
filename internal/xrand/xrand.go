// Package xrand provides deterministic, splittable pseudo-random streams
// for reproducible parallel experiments.
//
// Every simulation, adversary, and workload generator in this repository
// takes an explicit *xrand.Rand. Streams are derived from a base seed and a
// stream index, so a batch of jobs produces identical results no matter how
// the scheduler interleaves workers.
package xrand

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic pseudo-random source. It wraps a PCG generator
// from math/rand/v2 and adds the distributions used by this repository.
type Rand struct {
	src *rand.Rand
}

// New returns a stream seeded from the single seed value.
func New(seed uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(seed, mix(seed)))}
}

// NewStream returns the stream with the given index derived from a base
// seed. Distinct (seed, stream) pairs yield statistically independent
// streams; the mapping is deterministic.
func NewStream(seed, stream uint64) *Rand {
	return &Rand{src: rand.New(rand.NewPCG(mix(seed^0x9e3779b97f4a7c15), mix(stream+0x2545f4914f6cdd1d)))}
}

// Split derives a child stream from the current state. The parent advances
// by two draws; the child is independent of subsequent parent output.
func (r *Rand) Split() *Rand {
	return &Rand{src: rand.New(rand.NewPCG(r.src.Uint64(), r.src.Uint64()))}
}

// mix is the splitmix64 finalizer; it decorrelates nearby seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.src.Float64() }

// Coin returns true with probability 1/2.
func (r *Rand) Coin() bool { return r.src.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Norm returns a standard normal variate.
func (r *Rand) Norm() float64 { return r.src.NormFloat64() }

// NormMS returns a normal variate with the given mean and standard deviation.
func (r *Rand) NormMS(mean, sigma float64) float64 { return mean + sigma*r.src.NormFloat64() }

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp requires rate > 0")
	}
	return r.src.ExpFloat64() / rate
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses the normal approximation with continuity correction, which is more
// than accurate enough for workload generation.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(math.Round(r.NormMS(mean, math.Sqrt(mean))))
		if v < 0 {
			v = 0
		}
		return v
	}
	// Knuth's product method.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// UnitInto overwrites v with a uniformly random unit vector of its
// dimension, in place: ±1 in one dimension; otherwise one standard normal
// per coordinate, scaled by the inverse Euclidean norm (summed in
// coordinate order, as geom.Point.Norm does), redrawn while the norm is
// at most 1e-9.
func (r *Rand) UnitInto(v []float64) {
	if len(v) == 1 {
		v[0] = r.Sign()
		return
	}
	for {
		sq := 0.0
		for i := range v {
			v[i] = r.Norm()
			sq += v[i] * v[i]
		}
		if n := math.Sqrt(sq); n > 1e-9 {
			s := 1 / n
			for i := range v {
				v[i] *= s
			}
			return
		}
	}
}

// Sign returns +1.0 or -1.0 with equal probability.
func (r *Rand) Sign() float64 {
	if r.Coin() {
		return 1
	}
	return -1
}
