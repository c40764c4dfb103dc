package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/streamclient"
	"repro/internal/wire"
)

// startWindowedWorker is startWorker with the pipelining knobs exposed:
// the hosted shard services grant ingestion windows up to maxWindow and
// group-commit their checkpoints every commitEvery steps. testing.TB so
// the cluster benchmarks reuse it.
func startWindowedWorker(t testing.TB, cfg core.Config, dir string, maxWindow, commitEvery int) (*httptest.Server, *Worker) {
	t.Helper()
	w, err := NewWorker(cfg, WorkerOptions{NewAlg: newMtCK, CheckpointDir: dir, Span: testSpan,
		MaxWindow: maxWindow, CommitEvery: commitEvery})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		_ = w.Close()
	})
	return ts, w
}

// startDirectCluster wires a coordinator into a protocol.Service exactly
// like NewService does, but keeps the *Coordinator handle so a test can
// drive StepAsync/ResolveOldest itself — building a precise in-flight
// depth the service loop's own pacing could not reproduce — while still
// reading /metrics and /state off the real HTTP surface (the service's
// observers are notified at every resolve regardless of who calls it).
func startDirectCluster(t *testing.T, cfg core.Config, copts CoordinatorOptions, popts protocol.Options) (*httptest.Server, *Coordinator) {
	t.Helper()
	var co *Coordinator
	svc, err := protocol.NewFromBackend(cfg, func(eopts engine.Options) (protocol.Backend, error) {
		c, err := NewCoordinator(cfg, copts, eopts)
		if err != nil {
			return nil, err
		}
		co = c
		return c, nil
	}, popts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewFromService(cfg, svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		_ = srv.Close()
	})
	return ts, co
}

// TestWindowNegotiation pins the handshake floor rule: the usable window
// is the minimum the workers grant, capped by the coordinator's ask and
// floored at lockstep — so a mixed fleet with one lockstep worker
// degrades instead of breaking.
func TestWindowNegotiation(t *testing.T) {
	cfg := testCfg(2, 1)
	wa, _ := startWindowedWorker(t, cfg, t.TempDir(), 4, 1)
	wb, _ := startWindowedWorker(t, cfg, t.TempDir(), 4, 1)
	wLock, _ := startWorker(t, cfg, t.TempDir())

	cases := []struct {
		name    string
		workers []string
		ask     int
		want    int
	}{
		{"worker-grant-caps-ask", []string{wa.Listener.Addr().String(), wb.Listener.Addr().String()}, 8, 4},
		{"ask-caps-grant", []string{wa.Listener.Addr().String(), wb.Listener.Addr().String()}, 2, 2},
		{"lockstep-worker-floors-fleet", []string{wa.Listener.Addr().String(), wLock.Listener.Addr().String()}, 8, 1},
		{"no-ask-stays-lockstep", []string{wa.Listener.Addr().String(), wb.Listener.Addr().String()}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			copts := fastDial()
			copts.Workers = tc.workers
			copts.Window = tc.ask
			co, err := NewCoordinator(cfg, copts, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Finish()
			if co.Window() != tc.want {
				t.Fatalf("negotiated window = %d, want %d (ask %d)", co.Window(), tc.want, tc.ask)
			}
		})
	}
}

// TestClusterWindowedMatchesLocal is the pipelined tier's equivalence
// guarantee on the happy path: waves of W in-flight steps over workers
// running group commit, then one stream client keeping more frames in
// flight than the coordinator's queue holds, produce in-order acks and
// /metrics and /state byte-identical to the in-process sharded server fed
// the same steps one at a time.
func TestClusterWindowedMatchesLocal(t *testing.T) {
	const total, perStep, window = 12, 4, 3
	const streamed, queueLimit = 40, 2
	cfg := testCfg(2, 2)
	dir := t.TempDir()
	w1, _ := startWindowedWorker(t, cfg, dir, window, 2)
	w2, _ := startWindowedWorker(t, cfg, dir, window, 2)
	copts := fastDial()
	copts.Workers = []string{w1.Listener.Addr().String(), w2.Listener.Addr().String()}
	copts.Window = window
	cl, co := startDirectCluster(t, cfg, copts, protocol.Options{Window: window, QueueLimit: queueLimit, NoCoalesce: true})
	if co.Window() != window {
		t.Fatalf("negotiated window = %d, want %d", co.Window(), window)
	}
	local := startLocal(t, cfg)

	for step := 0; step < total; step += window {
		n := window
		if total-step < n {
			n = total - step
		}
		for i := 0; i < n; i++ {
			reqs := spreadReqs(step+i, perStep)
			if err := co.StepAsync(toGeom(reqs)); err != nil {
				t.Fatalf("StepAsync(%d): %v", step+i, err)
			}
			postStep(t, local.URL, reqs)
		}
		for i := 0; i < n; i++ {
			if err := co.ResolveOldest(); err != nil {
				t.Fatalf("ResolveOldest at step %d+%d: %v", step, i, err)
			}
		}
	}

	// The full queue must stall the coordinator's stream reader, not
	// refuse or reorder frames: frame i still runs as step total+i.
	c, err := streamclient.Dial(cl.URL, "/stream", streamclient.Options{Dim: cfg.Dim})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pends := make([]*streamclient.Pending, streamed)
	for i := range pends {
		if pends[i], err = c.Step(spreadReqs(total+i, perStep)); err != nil {
			t.Fatalf("stream step %d: %v", i, err)
		}
	}
	for i := range pends {
		postStep(t, local.URL, spreadReqs(total+i, perStep))
	}
	for i, p := range pends {
		ack, err := p.Wait()
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if ack.T != total+i {
			t.Fatalf("stream frame %d acked as step %d, want %d: frames ran out of order", i, ack.T, total+i)
		}
		p.Release()
	}

	cm, lm := getBody(t, cl.URL+"/metrics"), getBody(t, local.URL+"/metrics")
	if !bytes.Equal(cm, lm) {
		t.Fatalf("/metrics diverged under pipelining:\ncluster: %s\nlocal:   %s", cm, lm)
	}
	cs, ls := getBody(t, cl.URL+"/state"), getBody(t, local.URL+"/state")
	if a, b := stateWithoutWorkers(t, cs), stateWithoutWorkers(t, ls); !bytes.Equal(a, b) {
		t.Fatalf("/state diverged under pipelining:\ncluster: %s\nlocal:   %s", a, b)
	}
}

// waitShardT polls one shard's state endpoint directly on a worker until
// its step counter reaches want — the synchronization point that makes
// "j of the in-flight steps executed before the crash" deterministic.
func waitShardT(t *testing.T, base string, shard, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st wire.StateResponse
		if err := json.Unmarshal(getBody(t, fmt.Sprintf("%s/shard/%d/state", base, shard)), &st); err != nil {
			t.Fatal(err)
		}
		if st.T == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d stuck at step %d, want %d", shard, st.T, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterCrashAtEveryWindowOffset is the pipelined failover property
// test: with W=3 steps in flight, crash the worker at EVERY reachable
// offset — k steps unresolved, of which j executed (checkpointed,
// unacknowledged) and k−j never arrived — and require the run to end
// byte-identical to an uninterrupted in-process run. Every (k, j) pair
// exercises a different reconciliation mix: j ring recoveries followed by
// k−j resends on the replacement connection.
func TestClusterCrashAtEveryWindowOffset(t *testing.T) {
	const before, total, perStep, window = 4, 9, 4, 3
	cfg := testCfg(2, 2)
	for k := 0; k <= window; k++ {
		for j := 0; j <= k; j++ {
			t.Run(fmt.Sprintf("inflight=%d/executed=%d", k, j), func(t *testing.T) {
				dir := t.TempDir() // shared: the survivor restores the victim's shard
				w1, _ := startWindowedWorker(t, cfg, dir, window, 1)
				w2, _ := startWindowedWorker(t, cfg, dir, window, 1)
				px := newTestProxy(t, w1.Listener.Addr().String())
				copts := fastDial()
				copts.Workers = []string{px.addr(), w2.Listener.Addr().String()}
				copts.Window = window
				cl, co := startDirectCluster(t, cfg, copts, protocol.Options{})
				local := startLocal(t, cfg)

				step := func(i int) []wire.Point {
					reqs := spreadReqs(i, perStep)
					if err := co.StepAsync(toGeom(reqs)); err != nil {
						t.Fatalf("StepAsync(%d): %v", i, err)
					}
					postStep(t, local.URL, reqs)
					return reqs
				}
				resolve := func() {
					if err := co.ResolveOldest(); err != nil {
						t.Fatalf("ResolveOldest: %v", err)
					}
				}

				for i := 0; i < before; i++ {
					step(i)
					resolve()
				}

				// Open the crash window: acks stop flowing, then j steps
				// reach the worker and execute (checkpoint at before+j),
				// then the remaining k−j in-flight steps are swallowed
				// before arrival, then the worker "dies".
				px.silence()
				for i := 0; i < j; i++ {
					step(before + i)
				}
				waitShardT(t, "http://"+w1.Listener.Addr().String(), 0, before+j)
				px.blackhole()
				for i := j; i < k; i++ {
					step(before + i)
				}
				px.kill()

				// Resolving the backlog runs the reconciliation: the first
				// resolve rehomes shard 0 onto the survivor, recovers the j
				// executed steps from the welcome ring, and resends the
				// rest; later resolves consume what it banked.
				for i := 0; i < k; i++ {
					resolve()
				}
				for i := before + k; i < total; i++ {
					step(i)
					resolve()
				}

				cm, lm := getBody(t, cl.URL+"/metrics"), getBody(t, local.URL+"/metrics")
				if !bytes.Equal(cm, lm) {
					t.Fatalf("/metrics diverged (k=%d, j=%d):\ncluster: %s\nlocal:   %s", k, j, cm, lm)
				}
				cs, ls := getBody(t, cl.URL+"/state"), getBody(t, local.URL+"/state")
				if a, b := stateWithoutWorkers(t, cs), stateWithoutWorkers(t, ls); !bytes.Equal(a, b) {
					t.Fatalf("/state diverged (k=%d, j=%d):\ncluster: %s\nlocal:   %s", k, j, a, b)
				}
				var st wire.StateResponse
				if err := json.Unmarshal(cs, &st); err != nil {
					t.Fatal(err)
				}
				if st.Workers[0] != copts.Workers[1] {
					t.Fatalf("shard 0 not rehomed onto the survivor: %v", st.Workers)
				}
			})
		}
	}
}
