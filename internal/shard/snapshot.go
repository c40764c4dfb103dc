package shard

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// SnapshotVersion is the combined-snapshot format version written by
// Router.Snapshot.
const SnapshotVersion = 1

// snapshot is the serialized form of a mid-stream sharded run: the global
// configuration (including the partition — the shard layout is part of the
// document, so Restore can reject a mismatched layout before touching any
// shard), the router's own counters, the current per-shard fleet sizes,
// and one engine snapshot per shard. The per-shard documents are embedded
// verbatim, so per shard the combined checkpoint inherits the engine's
// byte-exactness guarantee.
type snapshot struct {
	Version  int         `json:"version"`
	Config   core.Config `json:"config"`
	Steps    int         `json:"steps"`
	Requests []int       `json:"requests"`
	// Ks is the live fleet layout: how many servers each shard owned when
	// the snapshot was taken (rebalancing migrations change it).
	Ks []int `json:"ks"`
	// Rebalances counts the migrations applied before the snapshot, so a
	// resumed run's counter continues instead of restarting.
	Rebalances int               `json:"rebalances,omitempty"`
	Shards     []json.RawMessage `json:"shards"`
}

// ErrSnapshotFinished mirrors engine.ErrSnapshotFinished for router
// callers.
var ErrSnapshotFinished = engine.ErrSnapshotFinished

// Snapshot serializes the sharded run mid-stream as one atomic document:
// the router counters, the current per-shard fleet layout, and every shard
// session's own snapshot, taken at the same global step (Step keeps all
// shards in lockstep). Feed the bytes to Restore to continue the run in
// another process — with the migrated layout reproduced exactly.
func (r *Router) Snapshot() ([]byte, error) {
	if r.finished {
		return nil, ErrSnapshotFinished
	}
	if r.err != nil {
		return nil, fmt.Errorf("shard: cannot snapshot a failed router: %w", r.err)
	}
	snap := snapshot{
		Version:    SnapshotVersion,
		Config:     r.cfg,
		Steps:      r.steps,
		Requests:   append([]int(nil), r.requests...),
		Ks:         r.Ks(),
		Rebalances: r.rebalances,
		Shards:     make([]json.RawMessage, len(r.sess)),
	}
	for i, s := range r.sess {
		b, err := s.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		snap.Shards[i] = b
	}
	return json.Marshal(&snap)
}

// Restore reopens a sharded run from bytes produced by Router.Snapshot.
// The caller passes the same base configuration the run was taken under —
// including the partition — and a factory for fresh per-shard algorithm
// instances; a snapshot whose shard layout (partition boundaries, shard
// count, or base configuration) disagrees is rejected as a whole rather
// than restoring a subset of shards against the wrong regions. The live
// per-shard fleet sizes come from the document itself, so a layout changed
// by rebalancing migrations resumes exactly as it stood; a document
// without the layout is refused. Each shard session is
// restored through engine.Restore, so positions, costs, step counters, and
// algorithm state continue exactly; observers in opts see only the steps
// fed after the restore.
func Restore(cfg core.Config, newAlg func() core.FleetAlgorithm, data []byte, opts engine.Options) (*Router, error) {
	var snap snapshot
	if err := wire.UnmarshalStrict(data, &snap); err != nil {
		return nil, fmt.Errorf("shard: bad snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("shard: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Partition.Equal(snap.Config.Partition) {
		return nil, fmt.Errorf("shard: snapshot was taken under partition %v, restore requested %v", snap.Config.Partition, cfg.Partition)
	}
	// The per-shard sessions run under derived configurations (K swapped
	// for the shard's live size), so the base configuration must be checked
	// here — engine.Restore can no longer catch a base-K mismatch once the
	// layout travels in the document. K=0 and K=1 both mean one server.
	if a, b := canonicalK(cfg), canonicalK(snap.Config); !a.Equal(b) {
		return nil, fmt.Errorf("shard: snapshot was taken under config %+v, restore requested %+v", snap.Config, cfg)
	}
	n := cfg.Partition.Shards()
	if len(snap.Shards) != n {
		return nil, fmt.Errorf("shard: snapshot has %d shards for a %d-shard partition", len(snap.Shards), n)
	}
	if len(snap.Requests) != n {
		return nil, fmt.Errorf("shard: snapshot has %d request counters for %d shards", len(snap.Requests), n)
	}
	if snap.Steps < 0 {
		return nil, errors.New("shard: snapshot has a negative step counter")
	}
	ks := snap.Ks
	if len(ks) != n {
		return nil, fmt.Errorf("shard: snapshot has %d fleet sizes for %d shards", len(ks), n)
	}
	for i, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("shard: snapshot gives shard %d fleet size %d", i, k)
		}
	}
	r := newRouter(cfg, ks, newAlg, opts)
	for i, sb := range snap.Shards {
		s, err := engine.Restore(r.shardConfig(i), newAlg(), sb, r.shardOptions(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.T() != snap.Steps {
			return nil, fmt.Errorf("shard %d: snapshot at step %d, router at step %d", i, s.T(), snap.Steps)
		}
		r.sess[i] = s
	}
	r.steps = snap.Steps
	r.rebalances = snap.Rebalances
	copy(r.requests, snap.Requests)
	r.begin()
	return r, nil
}

// canonicalK normalizes the K=0 ≡ K=1 freedom for base-config comparison.
func canonicalK(c core.Config) core.Config {
	c.K = c.Servers()
	return c
}

// PackSnapshot assembles a combined snapshot document with exactly the
// shape Router.Snapshot writes, from parts collected elsewhere — the hook
// the cluster coordinator uses to serve GET /snapshot by packing the
// per-shard snapshots it fetched from its workers. Because the shapes
// match, a fleet run can be scaled back down: feed the packed document to
// Restore and the whole cluster continues inside one process.
func PackSnapshot(cfg core.Config, steps int, requests []int, ks []int, rebalances int, shards []json.RawMessage) ([]byte, error) {
	n := cfg.Partition.Shards()
	if len(shards) != n {
		return nil, fmt.Errorf("shard: pack: %d shard documents for %d shards", len(shards), n)
	}
	if len(requests) != n {
		return nil, fmt.Errorf("shard: pack: %d request counters for %d shards", len(requests), n)
	}
	if len(ks) != n {
		return nil, fmt.Errorf("shard: pack: %d fleet sizes for %d shards", len(ks), n)
	}
	if steps < 0 {
		return nil, errors.New("shard: pack: negative step counter")
	}
	return json.Marshal(&snapshot{
		Version:    SnapshotVersion,
		Config:     cfg,
		Steps:      steps,
		Requests:   append([]int(nil), requests...),
		Ks:         append([]int(nil), ks...),
		Rebalances: rebalances,
		Shards:     shards,
	})
}
