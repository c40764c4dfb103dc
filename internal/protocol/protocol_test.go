package protocol

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/shard"
	"repro/internal/wire"
)

func testConfig(k int) core.Config {
	return core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, Order: core.MoveFirst, K: k}
}

func reqsFor(t, nReq int) []geom.Point {
	out := make([]geom.Point, nReq)
	for i := range out {
		angle := 2*math.Pi*float64(t)/41 + float64(i)
		out[i] = geom.NewPoint(8*math.Cos(angle), 8*math.Sin(angle))
	}
	return out
}

// TestSubmitMatchesEngine: driving the service batch-by-batch yields the
// same trajectory and costs as stepping an engine session directly — the
// protocol layer adds serving semantics, not drift.
func TestSubmitMatchesEngine(t *testing.T) {
	const steps = 40
	cfg := testConfig(2)
	svc, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ref, err := engine.NewSession(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var total core.Cost
	for i := 0; i < steps; i++ {
		reqs := reqsFor(i, 2)
		ack, err := svc.Submit(reqs)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if ack.T != i || ack.Accepted != 2 || ack.Batched != 2 {
			t.Fatalf("ack %d = %+v", i, ack)
		}
		if err := ref.Step(reqs); err != nil {
			t.Fatal(err)
		}
		total = total.Add(ack.Cost)
	}
	m := svc.Metrics()
	if m.Steps != steps || m.Requests != steps*2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Cost != ref.Cost() || total != ref.Cost() {
		t.Fatalf("cost drift: service %v, acks %v, engine %v", m.Cost, total, ref.Cost())
	}
	st := svc.State()
	if st.T != steps || len(st.Positions) != 2 {
		t.Fatalf("state = %+v", st)
	}
	refPos := ref.Positions()
	for j, p := range st.Positions {
		if geom.Dist(p, refPos[j]) != 0 {
			t.Fatalf("position %d drift: %v vs %v", j, p, refPos[j])
		}
	}
}

// blockingObserver parks the step loop inside a step so tests can hold the
// queue full deterministically.
type blockingObserver struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingObserver) Observe(engine.StepInfo) {
	b.entered <- struct{}{}
	<-b.release
}

// TestEnqueueOverload pins the two answers to a full queue: Submit (the
// per-request path) fails fast with *OverloadError carrying the
// millisecond backoff hint and counts the rejection, while Enqueue (the
// pipelined path) waits for a slot — and gives up with ErrShuttingDown
// once Close begins, without the batch ever reaching the session.
func TestEnqueueOverload(t *testing.T) {
	cfg := testConfig(1)
	obs := &blockingObserver{entered: make(chan struct{}, 8), release: make(chan struct{})}
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CoalesceWindow: 25 * time.Millisecond,
		QueueLimit:     1,
		Observers:      []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	first, err := svc.Enqueue(reqsFor(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-obs.entered // loop is parked inside the first step
	second, err := svc.Enqueue(reqsFor(1, 1))
	if err != nil {
		t.Fatalf("second enqueue should claim the queue slot: %v", err)
	}

	_, err = svc.Submit(reqsFor(2, 1))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Submit on a full queue = %v, want *OverloadError", err)
	}
	if oe.RetryAfterMS != 25 {
		t.Fatalf("RetryAfterMS = %d, want the 25ms coalescing window", oe.RetryAfterMS)
	}
	if got := svc.Rejected(); got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	waited := make(chan error, 1)
	go func() {
		_, err := svc.Enqueue(reqsFor(3, 1))
		waited <- err
	}()
	select {
	case err := <-waited:
		t.Fatalf("Enqueue on a full queue returned %v, want it to wait for a slot", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Close begins while the loop is still parked and the queue full: the
	// waiting Enqueue gives up, the queued batch still drains.
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	if err := <-waited; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("waiting Enqueue after Close = %v, want ErrShuttingDown", err)
	}
	obs.release <- struct{}{}
	<-obs.entered
	obs.release <- struct{}{}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if ack, err := first.Wait(); err != nil || ack.T != 0 {
		t.Fatalf("first = %+v, %v", ack, err)
	}
	if ack, err := second.Wait(); err != nil || ack.T != 1 {
		t.Fatalf("second = %+v, %v", ack, err)
	}
	if m := svc.Metrics(); m.Steps != 2 || m.Requests != 2 || m.Rejected != 1 {
		t.Fatalf("metrics = %+v, want the two enqueued batches executed and one rejection", m)
	}
}

// TestDurabilityError: when the checkpoint write fails, the step still
// executes exactly once and the error is typed with the executed index.
func TestDurabilityError(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "x.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for want := 0; want < 3; want++ {
		_, err := svc.Submit(reqsFor(want, 1))
		var de *DurabilityError
		if !errors.As(err, &de) {
			t.Fatalf("submit %d = %v, want *DurabilityError", want, err)
		}
		if de.ExecutedT != want {
			t.Fatalf("ExecutedT = %d, want %d", de.ExecutedT, want)
		}
	}
	if m := svc.Metrics(); m.Steps != 3 || m.Requests != 3 {
		t.Fatalf("metrics after three durability errors = %+v, want each batch fed exactly once", m)
	}
}

// TestSubmitAfterClose: a closing service refuses new work with
// ErrShuttingDown instead of hanging or panicking.
func TestSubmitAfterClose(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(reqsFor(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(reqsFor(1, 1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after close = %v, want ErrShuttingDown", err)
	}
}

// TestCheckpointRoundTrip: the service's checkpoint document resumes into
// a service whose metrics continue the pre-crash totals, and the file
// carries the wire version stamp (plus the legacy stamp for old readers).
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := testConfig(2)
	ckpt := filepath.Join(t.TempDir(), "svc.ckpt")
	svc, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := svc.Submit(reqsFor(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill without Close: the per-step checkpoint must carry everything.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wire.ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.V != wire.V1 {
		t.Fatalf("checkpoint stamp = v%d, want v%d", ck.V, wire.V1)
	}
	if len(ck.Ring) != 1 || ck.Ring[0].T != 9 || ck.Ring[0].Batched != 2 {
		t.Fatalf("lockstep checkpoint ring = %+v, want step 9 alone", ck.Ring)
	}

	r, err := Resume(cfg, multi.NewMtCK(), data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := r.Metrics(); m.Steps != 10 || m.Requests != 20 {
		t.Fatalf("resumed metrics = %+v, want 10 steps / 20 requests", m)
	}
	_ = svc // the "killed" service is intentionally left un-Closed
}

// TestShardedAckOwnsItsStats is the aliasing regression for router mode:
// Ack.Shards must be a copy of the router's per-shard step stats, because
// the router reuses that buffer on every step while callers read their
// acks outside the service lock. With the aliasing bug, this test fails
// under -race (concurrent submitters read acks while the loop keeps
// stepping).
func TestShardedAckOwnsItsStats(t *testing.T) {
	cfg := testConfig(2)
	cfg.Partition = core.UniformPartition(3, 20)
	svc, err := NewSharded(cfg, shard.Starts(cfg, 5),
		func() core.FleetAlgorithm { return multi.NewMtCK() }, Options{QueueLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ack, err := svc.Submit(reqsFor(g*1000+i, 3))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// Read the shard stats after Submit returned — exactly
				// what a transport adapter does — and check they are
				// internally consistent with the ack they rode in on.
				if len(ack.Shards) != 3 {
					t.Errorf("ack has %d shard stats, want 3", len(ack.Shards))
					return
				}
				routed := 0
				for _, st := range ack.Shards {
					routed += st.Routed
				}
				if routed != ack.Batched {
					t.Errorf("shard routed sum %d != batched %d (torn stats)", routed, ack.Batched)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWatchReceivesEvents: each executed step publishes one event carrying
// the step index, batch size, and the running totals.
func TestWatchReceivesEvents(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ch := svc.Watch(context.Background())

	for i := 0; i < 5; i++ {
		if _, err := svc.Submit(reqsFor(i, 3)); err != nil {
			t.Fatal(err)
		}
		ev := <-ch
		if ev.T != i || ev.Batched != 3 || ev.Steps != i+1 || ev.Requests != (i+1)*3 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Dropped != 0 {
			t.Fatalf("event %d reports drops on an attentive consumer: %+v", i, ev)
		}
	}
}

// TestWatchSlowConsumerDrops pins the drop policy: a subscriber that stops
// reading loses events beyond its buffer — the step loop never blocks —
// and the tally of lost events rides on the next delivered one.
func TestWatchSlowConsumerDrops(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ch := svc.Watch(context.Background())

	// Fill the buffer and then some without reading; every Submit
	// returns, proving the loop is not stalled by the unread subscriber.
	const total = WatchBuffer + 7
	for i := 0; i < total; i++ {
		if _, err := svc.Submit(reqsFor(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The loop is idle (every Submit was acknowledged); give the final
	// publish a moment to land, then drain the kept prefix: the buffer
	// holds exactly the first WatchBuffer events, drop-free.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < WatchBuffer; i++ {
		ev := <-ch
		if ev.T != i || ev.Dropped != 0 {
			t.Fatalf("buffered event %d = %+v", i, ev)
		}
	}
	// The remaining events were dropped; the tally rides on the next
	// delivered event, so execute one more step now that there is room.
	if _, err := svc.Submit(reqsFor(total, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.T != total || ev.Dropped != total-WatchBuffer {
			t.Fatalf("post-drop event = %+v, want T=%d Dropped=%d", ev, total, total-WatchBuffer)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-drop event never delivered")
	}
}

// TestWatchUnsubscribeAndClose: cancelling the context closes the channel,
// and Close ends every remaining subscription (including ones asked for
// after the fact).
func TestWatchUnsubscribeAndClose(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := svc.Watch(ctx)
	cancel()
	if !eventuallyClosed(cancelled) {
		t.Fatal("cancelled subscription never closed")
	}
	// Publishing against the removed subscriber must not panic.
	if _, err := svc.Submit(reqsFor(0, 1)); err != nil {
		t.Fatal(err)
	}

	open := svc.Watch(context.Background())
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if !eventuallyClosed(open) {
		t.Fatal("Close left a subscription open")
	}
	if late := svc.Watch(context.Background()); !eventuallyClosed(late) {
		t.Fatal("Watch after Close must return a closed channel")
	}
}

// eventuallyClosed drains ch until it closes or the deadline passes.
func eventuallyClosed(ch <-chan MetricsEvent) bool {
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// hotReqs puts n requests in a tight cluster around (x, 0), so one shard
// of a partitioned service carries the whole step's load.
func hotReqs(t, n int, x float64) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		angle := 2*math.Pi*float64(t)/31 + float64(i)
		out[i] = geom.NewPoint(x+2*math.Cos(angle), 2*math.Sin(angle))
	}
	return out
}

// TestWatchCancelFreesSubscriber is the leak check for subscriber
// lifecycle: cancelling the context must remove the subscriber from the
// service's map (freeing its buffer) and end its watcher goroutine — not
// merely close the channel.
func TestWatchCancelFreesSubscriber(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	before := runtime.NumGoroutine()
	const subs = 16
	ctx, cancel := context.WithCancel(context.Background())
	chans := make([]<-chan MetricsEvent, subs)
	for i := range chans {
		chans[i] = svc.Watch(ctx)
	}
	// Put events in the buffers so the test also covers freeing non-empty
	// subscriptions.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(reqsFor(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	for i, ch := range chans {
		if !eventuallyClosed(ch) {
			t.Fatalf("subscriber %d never closed after cancel", i)
		}
	}

	// The map entry (and with it the buffer) must be gone, and the watcher
	// goroutines must exit; poll briefly, they unwind asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for {
		svc.subMu.Lock()
		left := len(svc.subs)
		svc.subMu.Unlock()
		leaked := runtime.NumGoroutine() - before
		if left == 0 && leaked <= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after cancel: %d subscribers still registered, %d extra goroutines", left, leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The service must still serve and publish to fresh subscribers.
	fresh := svc.Watch(context.Background())
	if _, err := svc.Submit(reqsFor(9, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-fresh:
		if ev.Dropped != 0 {
			t.Fatalf("fresh subscriber starts with drops: %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fresh subscription after mass-cancel got no event")
	}
}

// TestWatchCarriesRebalanceEvent: with a rebalancing policy installed, the
// step that migrates a server publishes the typed event on the metrics
// feed, and the service's state report shows the new layout.
func TestWatchCarriesRebalanceEvent(t *testing.T) {
	cfg := testConfig(2)
	cfg.Partition = core.UniformPartition(4, 20)
	svc, err := NewSharded(cfg, shard.Starts(cfg, 5),
		func() core.FleetAlgorithm { return multi.NewMtCK() },
		Options{Rebalancer: &shard.Threshold{WindowSteps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ch := svc.Watch(context.Background())

	var ev *shard.RebalanceEvent
	for i := 0; i < 20 && ev == nil; i++ {
		if _, err := svc.Submit(hotReqs(i, 6, 15)); err != nil {
			t.Fatal(err)
		}
		got := <-ch
		ev = got.Rebalance
	}
	if ev == nil {
		t.Fatal("no rebalance event after 20 hotspot steps")
	}
	if ev.To != 3 || ev.From != 2 {
		t.Fatalf("migration %d→%d, want 2→3 (hotspot sits in shard 3)", ev.From, ev.To)
	}
	st := svc.State()
	total := 0
	for _, sh := range st.Shards {
		total += sh.Servers
		if len(sh.Positions) != sh.Servers {
			t.Fatalf("shard %d reports %d servers, %d positions", sh.Shard, sh.Servers, len(sh.Positions))
		}
	}
	if total != 8 {
		t.Fatalf("state layout sums to %d servers, want 8", total)
	}
	if st.Shards[3].Servers != 3 {
		t.Fatalf("hot shard has %d servers, want 3", st.Shards[3].Servers)
	}
}

// TestRebalancerRequiresShardedBackend: installing a policy on a
// single-session service is a configuration error, not a silent no-op.
func TestRebalancerRequiresShardedBackend(t *testing.T) {
	cfg := testConfig(1)
	_, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()),
		Options{Rebalancer: &shard.Threshold{}})
	if err == nil {
		t.Fatal("rebalancer on an unsharded backend must be refused")
	}
}

// TestResumeReproducesMigratedLayout is the serving-layer half of the
// layout-in-checkpoint invariant: kill a rebalanced service and resume it
// from its checkpoint file — the migrated layout, the metrics, and the
// state report all continue exactly where the killed process stood.
func TestResumeReproducesMigratedLayout(t *testing.T) {
	cfg := testConfig(2)
	cfg.Partition = core.UniformPartition(4, 20)
	path := filepath.Join(t.TempDir(), "ckpt")
	newAlg := func() core.FleetAlgorithm { return multi.NewMtCK() }
	opts := func() Options {
		return Options{CheckpointPath: path, Rebalancer: &shard.Threshold{WindowSteps: 4}}
	}

	svcA, err := NewSharded(cfg, shard.Starts(cfg, 5), newAlg, opts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := svcA.Submit(hotReqs(i, 6, 15)); err != nil {
			t.Fatal(err)
		}
	}
	wantMetrics := svcA.Metrics()
	wantState := svcA.State()
	if wantState.Shards[3].Servers != 3 {
		t.Fatalf("no migration before the kill: %+v", wantState.Shards)
	}
	if err := svcA.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := ResumeSharded(cfg, newAlg, snap, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	if got := svcB.Metrics(); !reflect.DeepEqual(got, wantMetrics) {
		t.Fatalf("resumed metrics diverged:\n%+v\nvs\n%+v", got, wantMetrics)
	}
	if got := svcB.State(); !reflect.DeepEqual(got, wantState) {
		t.Fatalf("resumed state diverged:\n%+v\nvs\n%+v", got, wantState)
	}
}

// TestWatchDropCarriesRebalance: a layout change whose step event was
// dropped on a slow subscriber rides the next delivered event, so a
// consumer tracking the layout from the feed never desyncs permanently.
func TestWatchDropCarriesRebalance(t *testing.T) {
	cfg := testConfig(1)
	svc, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ch := svc.Watch(context.Background())

	// Fill the subscriber's buffer, then publish a migrating step's event
	// into the full buffer: it is dropped, but its rebalance must be
	// remembered.
	for i := 0; i < WatchBuffer; i++ {
		svc.publish(MetricsEvent{T: i})
	}
	rb := &shard.RebalanceEvent{T: WatchBuffer, From: 0, To: 1, Ks: []int{1, 3}}
	svc.publish(MetricsEvent{T: WatchBuffer, Rebalance: rb})

	for i := 0; i < WatchBuffer; i++ {
		ev := <-ch
		if ev.Rebalance != nil {
			t.Fatalf("buffered event %d already carries a rebalance: %+v", i, ev)
		}
	}
	svc.publish(MetricsEvent{T: WatchBuffer + 1})
	ev := <-ch
	if ev.T != WatchBuffer+1 || ev.Dropped != 1 {
		t.Fatalf("post-drop event = %+v, want T=%d Dropped=1", ev, WatchBuffer+1)
	}
	if ev.Rebalance != rb {
		t.Fatalf("post-drop event lost the dropped migration: %+v", ev.Rebalance)
	}
	// Once delivered, the carried migration is cleared.
	svc.publish(MetricsEvent{T: WatchBuffer + 2})
	if ev := <-ch; ev.Rebalance != nil {
		t.Fatalf("carried migration delivered twice: %+v", ev.Rebalance)
	}
}
