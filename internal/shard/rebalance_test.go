package shard

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// hotBatch puts r requests in a tight cluster around (x, 0), so one shard
// carries the whole step's load.
func hotBatch(t, r int, x float64) []geom.Point {
	out := make([]geom.Point, r)
	for i := range out {
		ang := 2 * math.Pi * float64(t*r+i) / 97
		rad := 2 + 0.5*math.Sin(float64(t*13+i*7))
		out[i] = geom.NewPoint(x+rad*math.Cos(ang), rad*math.Sin(ang))
	}
	return out
}

// driftBatch is the adversarial workload for a static layout: a tight
// hotspot sweeping axis 0 from -16 to 16 over total steps, crossing every
// boundary of the halfwidth-20 test partition.
func driftBatch(t, total, r int) []geom.Point {
	frac := float64(t) / float64(total-1)
	return hotBatch(t, r, -16+32*frac)
}

// TestRebalanceMigratesBoundaryServer: a manual migration moves exactly
// the donor's boundary-nearest server into the recipient at its current
// position, updates the layout bookkeeping, and leaves every accumulated
// total untouched.
func TestRebalanceMigratesBoundaryServer(t *testing.T) {
	cfg := shardedConfig(3, 2)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		if err := r.Step(spreadBatch(step, 6)); err != nil {
			t.Fatal(err)
		}
	}
	preCost := r.Cost()
	preT := r.T()
	donorPos := r.States()[0].Positions
	boundary := cfg.Partition[0]
	want := donorPos[nearestAxis0(donorPos, boundary)]

	if err := r.Rebalance(Migration{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if got := r.Ks(); !reflect.DeepEqual(got, []int{1, 3, 2}) {
		t.Fatalf("layout after migration = %v, want [1 3 2]", got)
	}
	if r.Servers() != 6 {
		t.Fatalf("total servers = %d, want 6", r.Servers())
	}
	if r.Cost() != preCost {
		t.Fatalf("migration changed the accumulated cost: %v -> %v", preCost, r.Cost())
	}
	if r.T() != preT {
		t.Fatalf("migration changed the step counter: %d -> %d", preT, r.T())
	}
	states := r.States()
	if states[0].Servers != 1 || states[1].Servers != 3 {
		t.Fatalf("state servers = %d/%d, want 1/3", states[0].Servers, states[1].Servers)
	}
	migrated := states[1].Positions[len(states[1].Positions)-1]
	if !reflect.DeepEqual(migrated, want) {
		t.Fatalf("migrated server at %v, want the boundary-nearest donor server %v", migrated, want)
	}
	ev := r.LastRebalance()
	if ev == nil || ev.From != 0 || ev.To != 1 || ev.T != preT || !reflect.DeepEqual(ev.Ks, []int{1, 3, 2}) {
		t.Fatalf("rebalance event = %+v", ev)
	}
	if r.Rebalances() != 1 {
		t.Fatalf("rebalances = %d, want 1", r.Rebalances())
	}

	// The router keeps serving under the new layout.
	for step := 10; step < 20; step++ {
		if err := r.Step(spreadBatch(step, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.Positions()); got != 6 {
		t.Fatalf("merged positions = %d, want 6", got)
	}
	if r.LastRebalance() != nil {
		t.Fatal("a plain step must clear LastRebalance")
	}
}

// TestRebalanceValidation: invalid migrations are refused without touching
// the router.
func TestRebalanceValidation(t *testing.T) {
	cfg := shardedConfig(3, 1)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Migration{
		{From: 0, To: 2}, // not neighbors
		{From: 1, To: 1}, // self
		{From: -1, To: 0},
		{From: 2, To: 3},
		{From: 0, To: 1}, // donor has a single server
	}
	for _, m := range cases {
		if err := r.Rebalance(m); err == nil {
			t.Fatalf("migration %+v must be refused", m)
		}
	}
	if got := r.Ks(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("refused migrations changed the layout: %v", got)
	}
	if r.Rebalances() != 0 || r.LastRebalance() != nil {
		t.Fatal("refused migrations must not be recorded")
	}
	if err := r.Step(spreadBatch(0, 4)); err != nil {
		t.Fatalf("step after refused migrations: %v", err)
	}
	r.Finish()
	if err := r.Rebalance(Migration{From: 0, To: 1}); err != ErrFinished {
		t.Fatalf("rebalance after Finish = %v, want ErrFinished", err)
	}
}

// TestRebalanceTotalsSurviveMigrations: observers and Finish aggregate the
// same totals whether or not the layout changed mid-run.
func TestRebalanceTotalsSurviveMigrations(t *testing.T) {
	const steps, perStep = 40, 6
	cfg := shardedConfig(4, 2)
	metrics := &engine.Metrics{}
	moves := &engine.MoveStats{}
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{Observers: []engine.Observer{metrics, moves}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		if err := r.Step(spreadBatch(step, perStep)); err != nil {
			t.Fatal(err)
		}
		switch step {
		case 10:
			if err := r.Rebalance(Migration{From: 0, To: 1}); err != nil {
				t.Fatal(err)
			}
		case 25:
			if err := r.Rebalance(Migration{From: 3, To: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if metrics.Steps != steps || metrics.Requests != steps*perStep {
		t.Fatalf("metrics = %d steps / %d requests, want %d / %d", metrics.Steps, metrics.Requests, steps, steps*perStep)
	}
	if got, want := metrics.Cost.Total(), r.Cost().Total(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("observed cost %v != aggregated cost %v", metrics.Cost, r.Cost())
	}
	res := r.Finish()
	if res.Steps != steps {
		t.Fatalf("result steps = %d, want %d", res.Steps, steps)
	}
	if len(res.Final) != 8 {
		t.Fatalf("final positions = %d, want 8", len(res.Final))
	}
	if moves.MaxMove > res.MaxMove {
		// The carried MaxMove only grows; the merged observer can never see
		// more than the per-shard sessions accumulated.
		t.Fatalf("move stats MaxMove %v exceeds result MaxMove %v", moves.MaxMove, res.MaxMove)
	}
	shardRes, err := r.ShardResults()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	servers := 0
	for _, sr := range shardRes {
		sum += sr.Cost.Total()
		servers += len(sr.Final)
	}
	if math.Abs(sum-res.Cost.Total()) > 1e-9*(1+math.Abs(sum)) {
		t.Fatalf("shard results sum to %v, aggregate says %v", sum, res.Cost.Total())
	}
	if servers != 8 {
		t.Fatalf("shard results hold %d servers, want 8", servers)
	}
}

// TestUnequalShardsStepConcurrently drives a router whose shards have
// different fleet sizes — built that way and further skewed mid-run — and
// checks the merged views stay consistent. Run under -race this pins the
// per-shard capture offsets: the concurrent step goroutines must write
// disjoint ranges of the merged buffers even when sizes are unequal.
func TestUnequalShardsStepConcurrently(t *testing.T) {
	cfg := shardedConfig(4, 2)
	starts := StartsSized(cfg, 5, []int{1, 3, 2, 4})
	r, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 10
	for step := 0; step < 60; step++ {
		if err := r.Step(spreadBatch(step, 8)); err != nil {
			t.Fatal(err)
		}
		if step == 30 {
			if err := r.Rebalance(Migration{From: 3, To: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(r.Positions()); got != total {
			t.Fatalf("step %d: merged positions = %d, want %d", step, got, total)
		}
	}
	sum := 0
	for _, st := range r.States() {
		sum += st.Servers
		if len(st.Positions) != st.Servers {
			t.Fatalf("shard %d reports %d servers but %d positions", st.Shard, st.Servers, len(st.Positions))
		}
	}
	if sum != total {
		t.Fatalf("per-shard servers sum to %d, want %d", sum, total)
	}
	if got := r.Ks(); !reflect.DeepEqual(got, []int{1, 3, 3, 3}) {
		t.Fatalf("layout = %v, want [1 3 3 3]", got)
	}
}

// TestThresholdPlan unit-tests the reference policy's decision rule.
func TestThresholdPlan(t *testing.T) {
	p := &Threshold{WindowSteps: 8}
	base := LoadView{T: 8, Window: 8, Ks: []int{2, 2, 2}, Partition: []float64{-5, 5}}

	v := base
	v.Load = []int{0, 1, 40}
	if m := p.Plan(v); m == nil || m.From != 1 || m.To != 2 {
		t.Fatalf("skewed load planned %+v, want 1→2", m)
	}
	// Cooldown: the same skew right after is left alone.
	v.T = 10
	if m := p.Plan(v); m != nil {
		t.Fatalf("plan inside cooldown = %+v, want nil", m)
	}
	// After the cooldown the donor must still have servers to give.
	v.T = 16
	v.Ks = []int{2, 1, 3}
	v.Load = []int{0, 1, 40}
	if m := p.Plan(v); m != nil {
		t.Fatalf("plan with drained neighbor = %+v, want nil (shard 0 is not adjacent)", m)
	}
	// Balanced load never migrates.
	p2 := &Threshold{WindowSteps: 8}
	v = base
	v.Load = []int{20, 21, 22}
	if m := p2.Plan(v); m != nil {
		t.Fatalf("balanced load planned %+v", m)
	}
	// An almost-idle fleet is left alone regardless of relative skew.
	v.Load = []int{0, 0, 3}
	if m := p2.Plan(v); m != nil {
		t.Fatalf("idle fleet planned %+v", m)
	}
}

// TestAutoRebalanceFollowsHotspot: with the threshold policy installed, a
// hotspot parked in one region pulls a server across the boundary once the
// window fills, and the migration is visible through LastRebalance.
func TestAutoRebalanceFollowsHotspot(t *testing.T) {
	cfg := shardedConfig(4, 2)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRebalancer(&Threshold{WindowSteps: 8})

	var ev *RebalanceEvent
	for step := 0; step < 20 && ev == nil; step++ {
		if err := r.Step(hotBatch(step, 6, 15)); err != nil {
			t.Fatal(err)
		}
		ev = r.LastRebalance()
	}
	if ev == nil {
		t.Fatal("no migration after 20 hotspot steps")
	}
	if ev.To != 3 || ev.From != 2 {
		t.Fatalf("migration %d→%d, want 2→3 (hotspot sits in shard 3)", ev.From, ev.To)
	}
	if got := r.Ks(); !reflect.DeepEqual(got, []int{2, 2, 1, 3}) {
		t.Fatalf("layout = %v, want [2 2 1 3]", got)
	}
	if r.Rebalances() != 1 {
		t.Fatalf("rebalances = %d, want 1", r.Rebalances())
	}
}

// TestMigratedLayoutSurvivesRestore is the layout-in-checkpoint invariant:
// kill a run after the policy migrated a server, restore from the combined
// snapshot, finish the stream — the resumed run reproduces the migrated
// layout and every shard snapshot byte-identically.
func TestMigratedLayoutSurvivesRestore(t *testing.T) {
	const kill, total = 20, 40
	cfg := shardedConfig(4, 2)
	policy := func() Rebalancer { return &Threshold{WindowSteps: 8} }

	// The workload is hot in shard 3 long enough for exactly one
	// migration, then goes idle so neither the uninterrupted run nor the
	// resumed one (whose policy restarts with a fresh window) migrates
	// again — keeping both trajectories deterministic and comparable.
	batch := func(step int) []geom.Point {
		if step < 12 {
			return hotBatch(step, 6, 15)
		}
		return nil
	}

	full, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full.SetRebalancer(policy())
	half, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	half.SetRebalancer(policy())

	for step := 0; step < kill; step++ {
		if err := full.Step(batch(step)); err != nil {
			t.Fatal(err)
		}
		if err := half.Step(batch(step)); err != nil {
			t.Fatal(err)
		}
	}
	if full.Rebalances() != 1 {
		t.Fatalf("expected exactly one migration before the kill, got %d", full.Rebalances())
	}
	ck, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := Restore(cfg, newMtCK, ck, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetRebalancer(policy())
	if got := resumed.Ks(); !reflect.DeepEqual(got, full.Ks()) {
		t.Fatalf("resumed layout %v != live layout %v", got, full.Ks())
	}
	if resumed.Rebalances() != 1 {
		t.Fatalf("resumed rebalance counter = %d, want 1", resumed.Rebalances())
	}
	for step := kill; step < total; step++ {
		if err := full.Step(batch(step)); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Step(batch(step)); err != nil {
			t.Fatal(err)
		}
	}
	snapFull, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapResumed, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapFull, snapResumed) {
		t.Fatalf("combined snapshots differ after resume:\n%s\nvs\n%s", snapFull, snapResumed)
	}
	if !reflect.DeepEqual(full.Finish(), resumed.Finish()) {
		t.Fatal("aggregated results diverged after resume")
	}
}

// TestRestoreRejectsBadLayout: documents with a fleet-size list that does
// not fit the partition, or with non-positive sizes, are refused.
func TestRestoreRejectsBadLayout(t *testing.T) {
	cfg := shardedConfig(3, 2)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(spreadBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	ck, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ old, new string }{
		{`"ks":[2,2,2]`, `"ks":[2,2]`},
		{`"ks":[2,2,2]`, `"ks":[2,0,4]`},
	} {
		mangled := bytes.Replace(ck, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(mangled, ck) {
			t.Fatalf("snapshot does not contain %s:\n%s", tc.old, ck)
		}
		if _, err := Restore(cfg, newMtCK, mangled, engine.Options{}); err == nil {
			t.Fatalf("restore with %s must fail", tc.new)
		}
	}
}

// TestRestoreRefusesSnapshotWithoutLayout: documents written before
// dynamic rebalancing carry no fleet-size list; Restore refuses them
// instead of guessing a uniform layout.
func TestRestoreRefusesSnapshotWithoutLayout(t *testing.T) {
	cfg := shardedConfig(3, 2)
	r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(spreadBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	ck, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(ck, []byte(`"ks":[2,2,2],`), nil, 1)
	if bytes.Equal(legacy, ck) {
		t.Fatalf("snapshot does not carry the expected layout field:\n%s", ck)
	}
	if _, err := Restore(cfg, newMtCK, legacy, engine.Options{}); err == nil {
		t.Fatal("a snapshot without its fleet layout must be refused")
	}
}

// TestRebalanceReducesDriftCost is the headline win: on a busy hotspot
// drifting across every shard boundary, the threshold policy serves the
// same request stream strictly cheaper than the static layout — each
// region the hotspot enters is reinforced by servers that chased it to
// the boundary from the previous region, and the extra local capacity
// cuts the per-request serve distance for as long as the load sits there.
// (The win needs traffic heavy enough for serve cost to outweigh the
// migrated servers' extra movement: a window short enough to react within
// one region-crossing, and tens of requests per step. See
// BenchmarkRebalanceVsStatic for the tracked numbers.)
func TestRebalanceReducesDriftCost(t *testing.T) {
	const steps, perStep = 400, 24
	cfg := shardedConfig(4, 2)

	run := func(rb Rebalancer) float64 {
		r, err := New(cfg, Starts(cfg, 5), newMtCK, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rb != nil {
			r.SetRebalancer(rb)
		}
		for step := 0; step < steps; step++ {
			if err := r.Step(driftBatch(step, steps, perStep)); err != nil {
				t.Fatal(err)
			}
		}
		if rb != nil && r.Rebalances() == 0 {
			t.Fatal("the drifting hotspot triggered no migration")
		}
		return r.Cost().Total()
	}

	static := run(nil)
	rebalanced := run(&Threshold{WindowSteps: 8})
	t.Logf("drift cost: static %.1f, rebalanced %.1f (%.1f%% saved)",
		static, rebalanced, 100*(static-rebalanced)/static)
	if rebalanced >= static {
		t.Fatalf("rebalancing did not pay: static %.1f <= rebalanced %.1f", static, rebalanced)
	}
}

// TestRebalanceKZeroSnapshotRoundTrip: with a K=0 base config (the
// paper's single server per shard, unequal via StartsSized), a live
// migration and a restore derive per-shard configs by the same rule, so
// snapshots stay byte-identical across kill-and-restore.
func TestRebalanceKZeroSnapshotRoundTrip(t *testing.T) {
	cfg := core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, K: 0, Partition: core.UniformPartition(3, 20)}
	starts := StartsSized(cfg, 5, []int{2, 1, 1})
	full, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(cfg, starts, newMtCK, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	step := func(r *Router, s int) {
		t.Helper()
		if err := r.Step(spreadBatch(s, 5)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 5; s++ {
		step(full, s)
		step(half, s)
	}
	// Shard 0 donates its second server: shard 1 lands back at the base
	// size (K passthrough), shard 0 drops below it (explicit K).
	if err := full.Rebalance(Migration{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if err := half.Rebalance(Migration{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	for s := 5; s < 10; s++ {
		step(full, s)
		step(half, s)
	}
	ck, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(cfg, newMtCK, ck, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 10; s < 15; s++ {
		step(full, s)
		step(resumed, s)
	}
	snapFull, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapResumed, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapFull, snapResumed) {
		t.Fatalf("K=0 snapshots diverged across restore:\n%s\nvs\n%s", snapFull, snapResumed)
	}
}
