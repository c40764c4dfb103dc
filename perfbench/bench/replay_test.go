package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/protocol"

	"repro/perfbench/span"
)

// replayFixed feeds the first n steps of the seeded instance to a replay
// service, traced or not, and returns its final metrics and state.
func replayFixed(t *testing.T, seed uint64, n int, rec *span.Recorder) (protocol.MetricsSnapshot, protocol.StateSnapshot) {
	t.Helper()
	in := replayInstance(seed)
	svc, err := newReplayService(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < n; i++ {
		ack, err := svc.Submit(in.Steps[i%len(in.Steps)].Requests)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ack.Release()
	}
	return svc.Metrics(), svc.State()
}

// TestTracedReplayMatchesUntraced: the wrappers only time calls, so a
// traced replay must end float for float where the untraced one does,
// and both must pass the plain-router gate.
func TestTracedReplayMatchesUntraced(t *testing.T) {
	const seed, n = 7, 3000
	rec := &span.Recorder{}
	m0, s0 := replayFixed(t, seed, n, nil)
	m1, s1 := replayFixed(t, seed, n, rec)
	if !reflect.DeepEqual(m0, m1) {
		t.Fatalf("metrics differ:\nuntraced %+v\ntraced   %+v", m0, m1)
	}
	if !reflect.DeepEqual(s0, s1) {
		t.Fatalf("state differs:\nuntraced %+v\ntraced   %+v", s0, s1)
	}
	steps := 0
	for _, s := range rec.Spans() {
		if s.Name == "shard.step" {
			steps++
		}
	}
	if steps != n {
		t.Fatalf("recorded %d shard.step spans for %d steps", steps, n)
	}
	if err := checkReplay(replayInstance(seed), &replayPass{submitted: n, metrics: m1, state: s1}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGateCatchesDrift: one plain replay checks passes of different
// lengths, and refuses a pass whose cost is off by one ulp.
func TestReplayGateCatchesDrift(t *testing.T) {
	const seed, n = 3, 500
	m, s := replayFixed(t, seed, n, nil)
	in := replayInstance(seed)
	short, sm := replayFixed(t, seed, n/2, nil)
	p := &replayPass{submitted: n, metrics: m, state: s}
	q := &replayPass{submitted: n / 2, metrics: short, state: sm}
	if err := checkReplay(in, p, q); err != nil {
		t.Fatal(err)
	}
	q.metrics.Cost.Move = math.Nextafter(q.metrics.Cost.Move, math.Inf(1))
	if err := checkReplay(in, p, q); err == nil {
		t.Fatal("gate accepted a drifted cost")
	}
}

// TestReplayGateChecksCostPrefix: the cost_per_request snapshot taken
// after replayCostSteps is gated against the plain replay too.
func TestReplayGateChecksCostPrefix(t *testing.T) {
	const seed = 5
	m, s := replayFixed(t, seed, replayCostSteps, nil)
	in := replayInstance(seed)
	p := &replayPass{submitted: replayCostSteps, metrics: m, state: s, costAt: m}
	if err := checkReplay(in, p); err != nil {
		t.Fatal(err)
	}
	p.costAt.Cost.Serve = math.Nextafter(p.costAt.Cost.Serve, 0)
	if err := checkReplay(in, p); err == nil {
		t.Fatal("gate accepted a drifted cost_per_request snapshot")
	}
}
