package shard

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
)

// BenchmarkRouterStep measures one global serving step of the same fleet —
// 64 servers, 2048 requests spread over the whole space — sharded n ways:
// shards=1 is the unsharded baseline (one session owning all 64 servers),
// shards=8 is eight sessions of 8 servers stepping on separate goroutines.
// Spatial sharding cuts the nearest-server assignment from
// O(requests × fleet) to O(requests × fleet / n²) per shard and runs the
// shards concurrently; ns/op across n is the scaling curve.
func BenchmarkRouterStep(b *testing.B) {
	const totalServers, perStep = 64, 2048
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			cfg := shardedConfig(n, totalServers/n)
			r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			// Pre-generate a cycle of batches so workload synthesis stays
			// out of the measured loop.
			batches := make([][]geom.Point, 64)
			for i := range batches {
				batches[i] = spreadBatch(i, perStep)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Step(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebalanceVsStatic serves the drifting-hotspot workload — the
// adversarial pattern for a frozen shard layout — once per iteration, with
// and without the threshold rebalancing policy: 4 shards × 2 servers, a
// tight 24-request hotspot sweeping across all three boundaries over 400
// steps. ns/op is the full run; the cost/step metric is the serving cost
// the layout policy is judged on (rebalancing serves the drift cheaper
// because every region the hotspot enters was reinforced through the
// boundary it crossed).
func BenchmarkRebalanceVsStatic(b *testing.B) {
	const shards, k, steps, perStep = 4, 2, 400, 24
	cfg := shardedConfig(shards, k)
	batches := make([][]geom.Point, steps)
	for t := range batches {
		batches[t] = driftBatch(t, steps, perStep)
	}
	run := func(b *testing.B, newPolicy func() Rebalancer) {
		b.ReportAllocs()
		var cost float64
		for i := 0; i < b.N; i++ {
			r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if newPolicy != nil {
				r.SetRebalancer(newPolicy())
			}
			for t := range batches {
				if err := r.Step(batches[t]); err != nil {
					b.Fatal(err)
				}
			}
			cost += r.Cost().Total()
		}
		b.ReportMetric(cost/float64(b.N*steps), "cost/step")
	}
	b.Run("static", func(b *testing.B) { run(b, nil) })
	b.Run("rebalance", func(b *testing.B) {
		run(b, func() Rebalancer { return &Threshold{WindowSteps: 8} })
	})
}
