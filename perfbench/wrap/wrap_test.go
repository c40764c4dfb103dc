package wrap

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/shard"

	"repro/perfbench/span"
)

// TestBackendSurfacesMatch pins that each timing wrapper exposes exactly
// the optional protocol surfaces of the backend it wraps, for every
// backend the serving stack builds: otherwise the protocol layer would
// take another path with the wrappers on than without.
func TestBackendSurfacesMatch(t *testing.T) {
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 2, Partition: core.UniformPartition(2, 25)}
	newAlg := func() core.FleetAlgorithm { return multi.NewMtCK() }

	sess, err := engine.NewSession(core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 1},
		[]geom.Point{geom.Zero(2)}, core.Fleet(core.NewMtC()), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.New(cfg, shard.Starts(cfg, 5), newAlg, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cfg, cluster.WorkerOptions{NewAlg: newAlg, CheckpointDir: dir, MaxWindow: 8, CommitEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w)
		t.Cleanup(func() {
			srv.Close()
			_ = w.Close()
		})
		addrs = append(addrs, srv.Listener.Addr().String())
	}
	coord, err := cluster.NewCoordinator(cfg, cluster.CoordinatorOptions{Workers: addrs, Window: 8}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Finish() })

	for _, tc := range []struct {
		name  string
		inner protocol.Backend
		want  []string
	}{
		{"engine.Session", sess, []string{"PositionsInto"}},
		{"shard.Router", router, []string{"RegionBackend", "ShardedBackend"}},
		{"cluster.Coordinator", coord, []string{"RegionBackend", "PipelinedBackend", "FailoverBackend"}},
	} {
		if got := Surfaces(tc.inner); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s implements %v, the test expects %v", tc.name, got, tc.want)
		}
		w, err := Backend(tc.inner, &span.Recorder{}, "x.step", &Steps{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := Surfaces(w); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("wrapped %s exposes %v, the backend %v", tc.name, got, tc.want)
		}
	}
}

// TestAlgSurfacesMatch is the same pin for the algorithm wrappers: the
// engine probes Snapshotter (checkpoints) and FleetSizer (fleet checks).
func TestAlgSurfacesMatch(t *testing.T) {
	for _, newAlg := range []func() core.FleetAlgorithm{
		func() core.FleetAlgorithm { return multi.NewMtCK() },
		func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) },
	} {
		inner := newAlg()
		w := Algs(newAlg, &span.Recorder{}, "x.move", "x.step", nil)()
		if got, want := AlgSurfaces(w), AlgSurfaces(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("wrapped %T exposes %v, the algorithm %v", inner, got, want)
		}
	}
}

// TestUnknownSurfacesRefused: a backend whose surface set no wrapper
// covers is an error, never a silently narrower wrapper.
func TestUnknownSurfacesRefused(t *testing.T) {
	var b protocol.Backend = bareBackend{}
	if _, err := Backend(b, nil, "x.step", &Steps{}); err == nil {
		t.Fatal("wrapped a backend with no optional surfaces")
	}
}

type bareBackend struct{ protocol.Backend }

// TestSpansRecorded checks that a wrapped session records one step span
// and one move span per step, joined by step index.
func TestSpansRecorded(t *testing.T) {
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 1}
	rec := &span.Recorder{}
	steps := &Steps{}
	alg := Algs(func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }, rec, "core.move", "engine.step", steps)()
	sess, err := engine.NewSession(cfg, []geom.Point{geom.Zero(2)}, alg, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Backend(sess, rec, "engine.step", steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Step([]geom.Point{{float64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	count := map[string][]int64{}
	for _, s := range rec.Spans() {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		count[s.Name] = append(count[s.Name], s.Step)
	}
	want := []int64{0, 1, 2}
	if !reflect.DeepEqual(count["engine.step"], want) || !reflect.DeepEqual(count["core.move"], want) {
		t.Fatalf("spans by step: %v", count)
	}
}
