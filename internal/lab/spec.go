// Package lab is the scenario lab: a declarative experiment matrix over
// the serving stack's policy axes — request source (workload generator,
// adversary construction, or replayed traceio file) × shard count × fleet
// size × rebalance policy × cap mode × transport knobs — a cell runner
// that drives every combination through the real serving stack (an
// in-process protocol.Service for fast cells, a spawned mobserve fed over
// internal/streamclient for live cells), and a results layer writing
// results/<stamp>/<cell>/summary.json plus an aggregated cross-cell
// report plus its compact bench entry (bench.json).
//
// Determinism contract: an in-process cell is a pure function of (matrix
// spec, seed). Instances are generated from xrand streams keyed by the
// workload's label (not its position in the file, and not the sweep's
// scheduling), cells are driven step-by-step in lockstep with the Watch
// feed, and summaries carry no wall-clock fields — so rerunning a sweep
// with the same spec and seed reproduces every summary.json byte for
// byte, regardless of -parallel. Live cells (spawned servers) record
// negotiated transport facts and real serving metrics; their event
// counts ride the SSE feed's drop policy and are best-effort.
package lab

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// WorkloadSpec names one request source: exactly one of the three fields
// is set.
type WorkloadSpec struct {
	// Generator is a workload.ByName generator ("uniform", "hotspot",
	// "clusters", "burst", "zipf", "drift").
	Generator string `json:"generator,omitempty"`
	// Adversary is a lower-bound construction ("theorem1", "theorem2",
	// "theorem3"); the instance's own config (dim, serve order, delta)
	// overrides the matrix defaults.
	Adversary string `json:"adversary,omitempty"`
	// Trace is a traceio instance file, relative to the matrix file.
	Trace string `json:"trace,omitempty"`
}

// Label is the workload's cell-name token and its stable random-stream
// key: "hotspot", "adv-theorem1", or "trace-<basename>".
func (w WorkloadSpec) Label() string {
	switch {
	case w.Generator != "":
		return w.Generator
	case w.Adversary != "":
		return "adv-" + w.Adversary
	case w.Trace != "":
		base := filepath.Base(w.Trace)
		base = strings.TrimSuffix(base, filepath.Ext(base))
		return "trace-" + sanitize(base)
	default:
		return "empty"
	}
}

func (w WorkloadSpec) validate() error {
	set := 0
	for _, s := range []string{w.Generator, w.Adversary, w.Trace} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("lab: workload must set exactly one of generator|adversary|trace, got %+v", w)
	}
	return nil
}

// sanitize maps a free-form token onto the cell-name alphabet.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, s)
}

// Spec is the declarative experiment matrix: global instance parameters
// plus one value list per policy axis. The cell set is the cross product
// of the axes. Zero fields take the documented defaults.
type Spec struct {
	// Name identifies the matrix in reports. Default "matrix".
	Name string `json:"name"`
	// Seed is the base seed every cell's random stream derives from.
	Seed uint64 `json:"seed"`
	// T is the instance length in steps. Default 200.
	T int `json:"t"`
	// Requests is the fixed per-step request count fed to the workload
	// generators (adversary and trace sources bring their own counts).
	// Default 1.
	Requests int `json:"requests"`
	// Dim, D, M, Delta are the instance parameters (core.Config).
	// Defaults 2, 2, 1, 0.5.
	Dim   int     `json:"dim"`
	D     float64 `json:"d"`
	M     float64 `json:"m"`
	Delta float64 `json:"delta"`
	// Span is the sharded interval half-width: shards split [-span, span]
	// on axis 0. Default 25.
	Span float64 `json:"span"`
	// Radius is the initial fleet spread (mobserve's -radius). Default 5.
	Radius float64 `json:"radius"`
	// Alg pins the per-shard algorithm (mtc|mtck|lazy); empty picks mtc
	// for a single unsharded server and mtck otherwise.
	Alg string `json:"alg,omitempty"`

	// Workloads, Shards, K, Rebalance, and CapModes are the matrix axes.
	// Rebalance values are "static" and "threshold" (default [static]);
	// CapModes are "strict" and "clamp" (default [strict]).
	Workloads []WorkloadSpec `json:"workloads"`
	Shards    []int          `json:"shards"`
	K         []int          `json:"k"`
	Rebalance []string       `json:"rebalance,omitempty"`
	CapModes  []string       `json:"cap_modes,omitempty"`

	// RebalanceWindow, RebalanceRatio, and RebalanceCooldown tune the
	// threshold policy of every "threshold" cell (zero = policy default).
	RebalanceWindow   int     `json:"rebalance_window,omitempty"`
	RebalanceRatio    float64 `json:"rebalance_ratio,omitempty"`
	RebalanceCooldown int     `json:"rebalance_cooldown,omitempty"`

	// Mode selects the cell transport: "inproc" (default) drives an
	// in-process protocol.Service; "live" spawns a mobserve per cell and
	// feeds it over the streaming transport.
	Mode string `json:"mode,omitempty"`
	// Wire and Window are live-mode axes: the requested stream encoding
	// ("auto"|"binary"|"ndjson", default [auto]) and in-flight pipeline
	// depth (default [1]). Refused in inproc mode.
	Wire   []string `json:"wire,omitempty"`
	Window []int    `json:"window,omitempty"`
}

func (s *Spec) withDefaults() {
	if s.Name == "" {
		s.Name = "matrix"
	}
	if s.T <= 0 {
		s.T = 200
	}
	if s.Requests <= 0 {
		s.Requests = 1
	}
	if s.Dim <= 0 {
		s.Dim = 2
	}
	if s.D == 0 {
		s.D = 2
	}
	if s.M == 0 {
		s.M = 1
	}
	if s.Delta == 0 {
		s.Delta = 0.5
	}
	if s.Span == 0 {
		s.Span = 25
	}
	if s.Radius == 0 {
		s.Radius = 5
	}
	if len(s.Shards) == 0 {
		s.Shards = []int{1}
	}
	if len(s.K) == 0 {
		s.K = []int{1}
	}
	if len(s.Rebalance) == 0 {
		s.Rebalance = []string{"static"}
	}
	if len(s.CapModes) == 0 {
		s.CapModes = []string{"strict"}
	}
	if s.Mode == "" {
		s.Mode = "inproc"
	}
	if s.Mode == "live" {
		if len(s.Wire) == 0 {
			s.Wire = []string{"auto"}
		}
		if len(s.Window) == 0 {
			s.Window = []int{1}
		}
	}
}

// Cell is one fully-resolved combination of the matrix axes.
type Cell struct {
	// Name is the canonical cell name, used as the results directory.
	Name string
	// Workload is the cell's request source.
	Workload WorkloadSpec
	// Shards, K, Rebalance, and CapMode are the policy coordinates.
	Shards    int
	K         int
	Rebalance string
	CapMode   string
	// Live, Wire, and Window are the transport coordinates; Wire and
	// Window are meaningful only when Live.
	Live   bool
	Wire   string
	Window int
}

// Stream is the cell's instance-stream key: instances are keyed by the
// workload label alone, so every cell serving the same workload — across
// shard counts, policies, and reruns — replays the identical request
// sequence.
func (s *Spec) Stream(w WorkloadSpec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.Label()))
	return h.Sum64()
}

// ParseSpec decodes and validates a matrix file's bytes. Unknown fields
// are errors (a typo must not silently drop an axis).
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := wire.UnmarshalStrict(data, &s); err != nil {
		return nil, fmt.Errorf("lab: matrix spec: %w", err)
	}
	s.withDefaults()
	if _, err := s.Cells(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a matrix file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Cells expands the matrix into its cross product, in a fixed order
// (workloads × shards × k × rebalance × cap modes × wire × window), and
// refuses combinations the serving stack refuses (a threshold cell needs
// shards > 1 to have neighbors and k > 1 to have a donor).
func (s *Spec) Cells() ([]Cell, error) {
	s.withDefaults()
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("lab: matrix %q has no workloads", s.Name)
	}
	switch s.Mode {
	case "inproc":
		if len(s.Wire) > 0 || len(s.Window) > 0 {
			return nil, fmt.Errorf("lab: wire/window axes require mode \"live\"")
		}
	case "live":
	default:
		return nil, fmt.Errorf("lab: unknown mode %q (inproc|live)", s.Mode)
	}
	wires, windows := s.Wire, s.Window
	if len(wires) == 0 {
		wires = []string{""}
	}
	if len(windows) == 0 {
		windows = []int{0}
	}
	var cells []Cell
	for _, w := range s.Workloads {
		if err := w.validate(); err != nil {
			return nil, err
		}
		for _, shards := range s.Shards {
			if shards < 1 {
				return nil, fmt.Errorf("lab: shards value %d, need >= 1", shards)
			}
			for _, k := range s.K {
				if k < 1 {
					return nil, fmt.Errorf("lab: k value %d, need >= 1", k)
				}
				for _, reb := range s.Rebalance {
					switch reb {
					case "static":
					case "threshold":
						if shards <= 1 || k <= 1 {
							return nil, fmt.Errorf("lab: threshold cell %s_s%d_k%d needs shards > 1 and k > 1", w.Label(), shards, k)
						}
					default:
						return nil, fmt.Errorf("lab: unknown rebalance policy %q (static|threshold)", reb)
					}
					for _, cap := range s.CapModes {
						if cap != "strict" && cap != "clamp" {
							return nil, fmt.Errorf("lab: unknown cap mode %q (strict|clamp)", cap)
						}
						for _, wr := range wires {
							if s.Mode == "live" {
								switch wr {
								case "auto", "binary", "ndjson":
								default:
									return nil, fmt.Errorf("lab: unknown wire policy %q (auto|binary|ndjson)", wr)
								}
							}
							for _, win := range windows {
								if s.Mode == "live" && win < 1 {
									return nil, fmt.Errorf("lab: window value %d, need >= 1", win)
								}
								c := Cell{
									Workload:  w,
									Shards:    shards,
									K:         k,
									Rebalance: reb,
									CapMode:   cap,
									Live:      s.Mode == "live",
									Wire:      wr,
									Window:    win,
								}
								c.Name = cellName(c)
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Name] {
			return nil, fmt.Errorf("lab: duplicate cell %q (duplicate axis values?)", c.Name)
		}
		seen[c.Name] = true
	}
	return cells, nil
}

// cellName builds the canonical cell directory name.
func cellName(c Cell) string {
	name := fmt.Sprintf("%s_s%d_k%d_%s_%s", c.Workload.Label(), c.Shards, c.K, c.Rebalance, c.CapMode)
	if c.Live {
		name += fmt.Sprintf("_%s_w%d", c.Wire, c.Window)
	}
	return name
}

// Config assembles the serving configuration of one cell from the
// instance's own parameters (so adversary and trace sources keep their
// dim, serve order, and augmentation) plus the cell's fleet and shard
// coordinates.
func (s *Spec) Config(instCfg core.Config, c Cell) core.Config {
	cfg := instCfg
	cfg.K = c.K
	cfg.Partition = nil
	if c.Shards > 1 {
		cfg.Partition = core.UniformPartition(c.Shards, s.Span)
	}
	return cfg
}

// BaseConfig is the instance-generation configuration of the workload
// generators (fleet and shard coordinates are per-cell and do not affect
// generation).
func (s *Spec) BaseConfig() core.Config {
	s.withDefaults()
	return core.Config{Dim: s.Dim, D: s.D, M: s.M, Delta: s.Delta}
}
