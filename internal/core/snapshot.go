package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
	"repro/internal/wire"
)

// Snapshotter is an optional extension of Algorithm / FleetAlgorithm for
// checkpoint/resume: an algorithm that carries internal state beyond the
// server positions serializes it here so a session snapshot can reproduce
// the run exactly after a restart.
//
// The contract is deliberately asymmetric with Reset. When the engine
// restores a session it first calls Reset with the checkpointed server
// positions and only then RestoreState, so implementations whose entire
// state is the position vector may return nil from SnapshotState (meaning
// "Reset is enough") and treat RestoreState as a no-op. State must
// round-trip bit-exactly: a restored algorithm must produce the same Move
// sequence as the uninterrupted one.
type Snapshotter interface {
	// SnapshotState serializes the algorithm's internal state. Returning a
	// nil slice (with nil error) means the algorithm has no state beyond
	// what Reset reconstructs.
	SnapshotState() ([]byte, error)
	// RestoreState reinstalls state produced by SnapshotState on an
	// algorithm that has already been Reset with the checkpointed
	// positions.
	RestoreState(data []byte) error
}

// mtcState is the serialized form of MtC's internal state: the tracked
// server position (the configuration is reinstalled by Reset).
type mtcState struct {
	Pos []float64 `json:"pos"`
}

// SnapshotState implements Snapshotter. MtC's only run state is the
// tracked position; it is serialized explicitly rather than relying on
// Reset so a snapshot stays valid even if the engine's and the algorithm's
// position views ever diverge (e.g. under Clamp).
func (a *MtC) SnapshotState() ([]byte, error) {
	return json.Marshal(mtcState{Pos: a.Pos})
}

// RestoreState implements Snapshotter.
func (a *MtC) RestoreState(data []byte) error {
	var st mtcState
	if err := wire.UnmarshalStrict(data, &st); err != nil {
		return fmt.Errorf("core: MtC state: %w", err)
	}
	if len(st.Pos) != a.Cfg.Dim {
		return fmt.Errorf("core: MtC state has dim %d, want %d", len(st.Pos), a.Cfg.Dim)
	}
	a.Pos = geom.Point(st.Pos).Clone()
	return nil
}

// SnapshotState implements Snapshotter by delegating to the lifted
// algorithm; a lifted algorithm without snapshot support reports no state.
func (f *fleetOfOne) SnapshotState() ([]byte, error) {
	if sn, ok := f.inner.(Snapshotter); ok {
		return sn.SnapshotState()
	}
	return nil, nil
}

// RestoreState implements Snapshotter by delegating to the lifted
// algorithm. State for an algorithm that cannot restore it is an error:
// silently dropping it would fork the run.
func (f *fleetOfOne) RestoreState(data []byte) error {
	if sn, ok := f.inner.(Snapshotter); ok {
		return sn.RestoreState(data)
	}
	return fmt.Errorf("core: %s does not support state restore", f.inner.Name())
}
