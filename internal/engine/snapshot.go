package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// SnapshotVersion is the format version written by Session.Snapshot.
const SnapshotVersion = 1

// snapshot is the serialized form of a mid-stream session: everything a
// fresh process needs to continue the run exactly where this one stood.
// Coordinates and costs are JSON numbers; Go emits the shortest
// representation that round-trips to the identical float64 bits, so a
// restored session is bit-exact, not merely close.
type snapshot struct {
	Version   int         `json:"version"`
	Config    core.Config `json:"config"`
	Algorithm string      `json:"algorithm"`
	// Mode and Tol are the cap-enforcement options the run was taken
	// under; resuming under different ones would silently fork the
	// trajectory, so Restore insists they match.
	Mode      Mode            `json:"mode"`
	Tol       float64         `json:"tol"`
	Steps     int             `json:"steps"`
	Cost      core.Cost       `json:"cost"`
	MaxMove   float64         `json:"max_move"`
	Clamped   int             `json:"clamped"`
	Positions [][]float64     `json:"positions"`
	AlgState  json.RawMessage `json:"alg_state,omitempty"`
}

// ErrSnapshotFinished is returned by Snapshot after Finish: a finished
// session has nothing left to resume.
var ErrSnapshotFinished = errors.New("engine: cannot snapshot a finished session")

// canonicalConfig normalizes the equality-irrelevant freedom in Config —
// K=0 and K=1 both mean the paper's single server — so Restore does not
// reject semantically identical configurations.
func canonicalConfig(c core.Config) core.Config {
	c.K = c.Servers()
	return c
}

// Snapshot serializes the session mid-stream: configuration, step counter,
// accumulated costs and counters, every server position, and — when the
// algorithm implements core.Snapshotter — the algorithm's internal state.
// The bytes are self-describing JSON; feed them to Restore (with a fresh
// algorithm instance of the same kind) to continue the run in another
// session or another process. Snapshotting does not disturb the session.
func (s *Session) Snapshot() ([]byte, error) {
	if s.finished {
		return nil, ErrSnapshotFinished
	}
	if s.err != nil {
		return nil, fmt.Errorf("engine: cannot snapshot a failed session: %w", s.err)
	}
	snap := snapshot{
		Version:   SnapshotVersion,
		Config:    s.cfg,
		Algorithm: s.res.Algorithm,
		Mode:      s.opts.Mode,
		Tol:       s.opts.Tol,
		Steps:     s.res.Steps,
		Cost:      s.res.Cost,
		MaxMove:   s.res.MaxMove,
		Clamped:   s.res.Clamped,
		Positions: make([][]float64, len(s.pos)),
	}
	for j, p := range s.pos {
		snap.Positions[j] = p
	}
	if sn, ok := s.alg.(core.Snapshotter); ok {
		state, err := sn.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("engine: algorithm %s state: %w", s.res.Algorithm, err)
		}
		snap.AlgState = state
	}
	return json.Marshal(&snap)
}

// Restore reopens a session from bytes produced by Snapshot, continuing the
// run exactly where the snapshot was taken: positions, accumulated costs,
// the step counter, and clamp counters all carry over, and the algorithm is
// Reset with the checkpointed positions before any serialized internal
// state is reinstalled via core.Snapshotter. The caller passes a fresh
// algorithm instance of the same kind (matched by Name), the same
// configuration the original session ran under (K=0 and K=1 are treated as
// equal), and options with the same cap-enforcement Mode and Tol; any
// mismatch is an error rather than a silently forked run.
//
// Observers in opts are announced with the restored positions and then see
// only the steps fed after the restore.
func Restore(cfg core.Config, alg core.FleetAlgorithm, data []byte, opts Options) (*Session, error) {
	var snap snapshot
	if err := wire.UnmarshalStrict(data, &snap); err != nil {
		return nil, fmt.Errorf("engine: bad snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !canonicalConfig(cfg).Equal(canonicalConfig(snap.Config)) {
		return nil, fmt.Errorf("engine: snapshot was taken under config %+v, restore requested %+v", snap.Config, cfg)
	}
	normalized := opts.withDefaults()
	if normalized.Mode != snap.Mode || normalized.Tol != snap.Tol {
		return nil, fmt.Errorf("engine: snapshot was taken with mode=%d tol=%g, restore requested mode=%d tol=%g",
			int(snap.Mode), snap.Tol, int(normalized.Mode), normalized.Tol)
	}
	if alg.Name() != snap.Algorithm {
		return nil, fmt.Errorf("engine: snapshot was taken with algorithm %q, restore got %q", snap.Algorithm, alg.Name())
	}
	if len(snap.Positions) != cfg.Servers() {
		return nil, fmt.Errorf("engine: snapshot has %d positions for K=%d servers", len(snap.Positions), cfg.Servers())
	}
	pos := make([]geom.Point, len(snap.Positions))
	for j, c := range snap.Positions {
		p := geom.Point(c)
		if p.Dim() != cfg.Dim {
			return nil, fmt.Errorf("engine: snapshot position %d has dim %d, want %d", j, p.Dim(), cfg.Dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("engine: snapshot position %d is not finite: %v", j, p)
		}
		pos[j] = p
	}
	if fs, ok := alg.(core.FleetSizer); ok && fs.FleetSize() != cfg.Servers() {
		return nil, fmt.Errorf("engine: %s controls %d servers, config has K=%d", alg.Name(), fs.FleetSize(), cfg.Servers())
	}
	s := &Session{
		cfg:  cfg,
		alg:  alg,
		opts: opts.withDefaults(),
		cap:  cfg.OnlineCap(),
		pos:  clonePoints(pos),
		obs:  opts.Observers,
	}
	alg.Reset(cfg, clonePoints(pos))
	if len(snap.AlgState) > 0 {
		sn, ok := alg.(core.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("engine: snapshot carries %s state but the algorithm cannot restore it", snap.Algorithm)
		}
		if err := sn.RestoreState(snap.AlgState); err != nil {
			return nil, fmt.Errorf("engine: algorithm %s state: %w", snap.Algorithm, err)
		}
	}
	s.res = Result{
		Algorithm: snap.Algorithm,
		Cost:      snap.Cost,
		MaxMove:   snap.MaxMove,
		Clamped:   snap.Clamped,
		Steps:     snap.Steps,
	}
	if len(s.obs) > 0 {
		announced := clonePoints(s.pos)
		for _, o := range s.obs {
			if b, ok := o.(BeginObserver); ok {
				b.Begin(cfg, announced, s.res.Algorithm)
			}
		}
	}
	return s, nil
}
