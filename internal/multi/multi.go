// Package multi implements the extension sketched in the paper's
// conclusion (Section 6): multiple mobile servers with per-step movement
// caps — the k-Server/Page-Migration hybrid obtained by limiting
// configuration changes per round. Requests are served by the nearest
// server after the servers move.
//
// The model itself lives in the shared core types: core.Config carries the
// fleet size K, core.FleetInstance holds the start positions, and the
// controllers implement core.FleetAlgorithm, so they run on the same
// streaming engine as the single-server paper model. This package provides
// the natural generalization of Move-to-Center (cluster-and-chase) and
// reference baselines, so experiment E12 can explore how fleet size trades
// off against cost.
package multi

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/median"
	"repro/internal/wire"
)

// ServeCost returns Σ_v min_j d(positions[j], v): every request is served
// by its nearest server.
func ServeCost(positions, requests []geom.Point) float64 {
	return core.NearestServeCost(positions, requests)
}

// Run executes the fleet controller on the instance with strict cap
// enforcement. It is a thin wrapper over an engine session.
func Run(in *core.FleetInstance, alg core.FleetAlgorithm, tol float64) (*engine.Result, error) {
	return engine.Run(in, alg, engine.Options{Mode: engine.Strict, Tol: tol})
}

// MtCK generalizes Move-to-Center to a fleet (cluster-and-chase): requests
// are assigned to their nearest server, and each server runs the
// single-server MtC rule on its assigned batch (center = 1-median of the
// batch, speed min(1, r_j/D)·distance, capped).
type MtCK struct {
	cfg core.Config
	pos []geom.Point
	// buckets holds each server's share of the current batch, and center
	// the 1-median being chased. Move reuses both every step, so the
	// steady loop allocates nothing once they have grown.
	buckets [][]geom.Point
	center  geom.Point
}

// NewMtCK returns the fleet Move-to-Center controller.
func NewMtCK() *MtCK { return &MtCK{} }

// Name implements core.FleetAlgorithm.
func (a *MtCK) Name() string { return "MtC-k" }

// Reset implements core.FleetAlgorithm.
func (a *MtCK) Reset(cfg core.Config, starts []geom.Point) {
	a.cfg = cfg
	a.pos = make([]geom.Point, len(starts))
	for i, s := range starts {
		a.pos[i] = s.Clone()
	}
	a.buckets = make([][]geom.Point, len(starts))
}

// Move implements core.FleetAlgorithm. It moves the servers in place: the
// returned slice and its points are the controller's own and are
// overwritten by the next Move (the engine copies them at once). Only the
// non-collinear 3-request share allocates, inside median.ThreePoints.
//
//moblint:hotpath
func (a *MtCK) Move(requests []geom.Point) []geom.Point {
	if len(requests) == 0 {
		return a.pos
	}
	for j := range a.buckets {
		a.buckets[j] = a.buckets[j][:0]
	}
	for _, v := range requests {
		bestJ, bestD := 0, math.Inf(1)
		for j, p := range a.pos {
			if d := geom.Dist(p, v); d < bestD {
				bestD, bestJ = d, j
			}
		}
		a.buckets[bestJ] = append(a.buckets[bestJ], v)
	}
	cap := a.cfg.OnlineCap()
	for j, batch := range a.buckets {
		if len(batch) == 0 {
			continue
		}
		a.center = median.ClosestInto(a.center, batch, a.pos[j], median.Options{})
		dist := geom.Dist(a.pos[j], a.center)
		speed := math.Min(1, float64(len(batch))/a.cfg.D)
		step := math.Min(speed*dist, cap)
		a.pos[j] = geom.MoveTowardInto(a.pos[j], a.pos[j], a.center, step)
	}
	return a.pos
}

// fleetState is the serialized internal state of the fleet controllers:
// every server position as tracked by the algorithm itself (the
// configuration is reinstalled by Reset).
type fleetState struct {
	Pos [][]float64 `json:"pos"`
}

func snapshotFleetState(pos []geom.Point) ([]byte, error) {
	st := fleetState{Pos: make([][]float64, len(pos))}
	for j, p := range pos {
		st.Pos[j] = p
	}
	return json.Marshal(st)
}

func restoreFleetState(data []byte, pos []geom.Point) error {
	var st fleetState
	if err := wire.UnmarshalStrict(data, &st); err != nil {
		return err
	}
	if len(st.Pos) != len(pos) {
		return fmt.Errorf("multi: state has %d servers, want %d", len(st.Pos), len(pos))
	}
	for j, c := range st.Pos {
		if len(c) != pos[j].Dim() {
			return fmt.Errorf("multi: state server %d has dim %d, want %d", j, len(c), pos[j].Dim())
		}
		pos[j] = geom.Point(c).Clone()
	}
	return nil
}

// SnapshotState implements core.Snapshotter: MtCK's only run state is its
// position view, serialized explicitly so a checkpoint stays exact even if
// the engine's and the controller's views ever diverge.
func (a *MtCK) SnapshotState() ([]byte, error) { return snapshotFleetState(a.pos) }

// RestoreState implements core.Snapshotter; the controller must already
// have been Reset with the checkpointed fleet layout.
func (a *MtCK) RestoreState(data []byte) error { return restoreFleetState(data, a.pos) }

// LazyK keeps all servers at their start positions.
type LazyK struct{ pos []geom.Point }

// NewLazyK returns the never-moving fleet baseline.
func NewLazyK() *LazyK { return &LazyK{} }

// Name implements core.FleetAlgorithm.
func (a *LazyK) Name() string { return "Lazy-k" }

// Reset implements core.FleetAlgorithm.
func (a *LazyK) Reset(_ core.Config, starts []geom.Point) { a.pos = starts }

// Move implements core.FleetAlgorithm.
func (a *LazyK) Move(_ []geom.Point) []geom.Point { return a.pos }

// SnapshotState implements core.Snapshotter.
func (a *LazyK) SnapshotState() ([]byte, error) { return snapshotFleetState(a.pos) }

// RestoreState implements core.Snapshotter.
func (a *LazyK) RestoreState(data []byte) error { return restoreFleetState(data, a.pos) }

// SpreadStarts places cfg.Servers() servers evenly on a circle of the given
// radius around the origin (on a segment in 1-D), a reasonable neutral
// initial fleet layout.
func SpreadStarts(cfg core.Config, radius float64) []geom.Point {
	k := cfg.Servers()
	starts := make([]geom.Point, k)
	for j := 0; j < k; j++ {
		p := geom.Zero(cfg.Dim)
		if k > 1 {
			switch cfg.Dim {
			case 1:
				p[0] = -radius + 2*radius*float64(j)/float64(k-1)
			default:
				angle := 2 * math.Pi * float64(j) / float64(k)
				p[0] = radius * math.Cos(angle)
				p[1] = radius * math.Sin(angle)
			}
		}
		starts[j] = p
	}
	return starts
}
