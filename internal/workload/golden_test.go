package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// goldenVariant is one generator configuration the goldens pin.
type goldenVariant struct {
	name string
	g    Generator
}

// goldenVariants lists every registry generator at its defaults, at
// WithRequests(g, 7), and with PoissonMean 4 where its type has one.
func goldenVariants() []goldenVariant {
	var out []goldenVariant
	for _, g := range Registry() {
		out = append(out, goldenVariant{g.Name(), g}, goldenVariant{g.Name() + "/req7", WithRequests(g, 7)})
		if p := withPoisson(g, 4); p != nil {
			out = append(out, goldenVariant{g.Name() + "/poisson4", p})
		}
	}
	return out
}

// withPoisson returns g with PoissonMean set to mean, or nil if g's type
// has no PoissonMean.
func withPoisson(g Generator, mean float64) Generator {
	switch w := g.(type) {
	case Uniform:
		w.PoissonMean = mean
		return w
	case Hotspot:
		w.PoissonMean = mean
		return w
	case Clusters:
		w.PoissonMean = mean
		return w
	case Zipf:
		w.PoissonMean = mean
		return w
	case Drift:
		w.PoissonMean = mean
		return w
	}
	return nil
}

// goldenDigests pins every variant's output, folded over dims 1–3 and
// seeds 1–3 at T = 300. Float output is pinned on linux/amd64 only:
// arm64 may contract a multiply-add into one FMA and round differently.
var goldenDigests = map[string]uint64{
	"uniform":           0x4a0ca6dc722d5728,
	"uniform/req7":      0xbc8a4a2d2e9c04e4,
	"uniform/poisson4":  0xc2a0a249136dd137,
	"hotspot":           0x50d859903a51e074,
	"hotspot/req7":      0x28969d5c23689af1,
	"hotspot/poisson4":  0x43064a44d2a9bc9d,
	"clusters":          0x68cea6107e836583,
	"clusters/req7":     0x9b25188d79da3c2d,
	"clusters/poisson4": 0xb007e5dc5f057539,
	"burst":             0x777db2fb9c363aa7,
	"burst/req7":        0x5918bf1437878270,
	"zipf":              0x4723188c7810af2a,
	"zipf/req7":         0x7ccd8f134584621f,
	"zipf/poisson4":     0x6fa1577816091848,
	"drift":             0xb4b0007b31cb53c8,
	"drift/req7":        0x6ff41f423272ab8c,
	"drift/poisson4":    0x6c3e3f9d14b9aac8,
}

// digest folds one variant's instances into an FNV-64a hash: each step's
// request count and nil-ness, then each point's cap and the bits of
// every coordinate. It fails t if a point's cap is not its dimension or
// a step's Requests has spare capacity.
func digest(t *testing.T, name string, g Generator) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for dim := 1; dim <= 3; dim++ {
		cfg := core.Config{Dim: dim, D: 2, M: 1, Delta: 0.5, Order: core.MoveFirst}
		for seed := uint64(1); seed <= 3; seed++ {
			in := g.Generate(xrand.New(seed), cfg, 300)
			for ti, st := range in.Steps {
				put(uint64(len(st.Requests)))
				if st.Requests == nil {
					put(1)
				} else {
					put(0)
				}
				if cap(st.Requests) != len(st.Requests) {
					t.Fatalf("%s dim %d seed %d step %d: cap %d, len %d", name, dim, seed, ti, cap(st.Requests), len(st.Requests))
				}
				for _, p := range st.Requests {
					if cap(p) != dim {
						t.Fatalf("%s dim %d seed %d step %d: point cap %d", name, dim, seed, ti, cap(p))
					}
					put(uint64(cap(p)))
					for _, x := range p {
						put(math.Float64bits(x))
					}
				}
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorGoldens checks that every generator still emits the same
// instances, bit for bit. After a deliberate change to a generator's
// output, replace the digests with the ones the failure messages print.
func TestGeneratorGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, v := range goldenVariants() {
		if got, want := digest(t, v.name, v.g), goldenDigests[v.name]; got != want {
			t.Errorf("%q: %#016x, // want %#016x", v.name, got, want)
		}
	}
}
