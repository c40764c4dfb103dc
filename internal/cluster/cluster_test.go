package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/streamclient"
	"repro/internal/wire"
)

// testSpan is the fresh-fleet placement half-width shared by every node in
// these tests — workers and the local reference server must agree on it or
// their start positions (and therefore every downstream float) diverge.
const testSpan = 5.0

func testCfg(n, k int) core.Config {
	return core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5, Order: core.MoveFirst, K: k,
		Partition: core.UniformPartition(n, 20)}
}

func newMtCK() core.FleetAlgorithm { return multi.NewMtCK() }

// spreadReqs sweeps the whole partitioned interval so every shard sees
// traffic (the same workload the server-side sharded tests drive).
func spreadReqs(t, nReq int) []wire.Point {
	out := make([]wire.Point, nReq)
	for i := range out {
		x := -19 + 38*math.Mod(0.37*float64(t*nReq+i)+0.11, 1.0)
		y := 5 * math.Sin(float64(t)+float64(i)*1.7)
		out[i] = wire.Point{x, y}
	}
	return out
}

// startWorker hosts a Worker on a real listener. Callers kill the returned
// httptest server themselves when the test's point is the kill.
func startWorker(t *testing.T, cfg core.Config, dir string) (*httptest.Server, *Worker) {
	t.Helper()
	w, err := NewWorker(cfg, WorkerOptions{NewAlg: newMtCK, CheckpointDir: dir, Span: testSpan})
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

// fastDial keeps failover decisions quick in tests: two attempts with
// millisecond backoff per candidate.
func fastDial() CoordinatorOptions {
	return CoordinatorOptions{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
}

// startCluster spins up a full coordinator node over the given workers.
func startCluster(t *testing.T, cfg core.Config, copts CoordinatorOptions) *httptest.Server {
	t.Helper()
	svc, err := NewService(cfg, copts, protocol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewFromService(cfg, svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.CloseClientConnections()
		ts.Close()
		_ = srv.Close()
		// Finish closes the coordinator's worker streams and stops their
		// heartbeats; Close alone leaves them running past the test.
		srv.Finish()
	})
	return ts
}

// startLocal starts the in-process sharded reference server: what the
// cluster must be byte-indistinguishable from.
func startLocal(t *testing.T, cfg core.Config) *httptest.Server {
	t.Helper()
	s, err := server.NewSharded(cfg, shard.Starts(cfg, testSpan), newMtCK, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return ts
}

func postStep(t *testing.T, url string, reqs []wire.Point) {
	t.Helper()
	buf, err := json.Marshal(wire.StepRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/step", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /step = %d: %s", resp.StatusCode, body)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return data
}

// stateWithoutWorkers parses a /state body and strips the cluster-only
// shard→worker assignment, the one field a local server cannot have.
func stateWithoutWorkers(t *testing.T, body []byte) []byte {
	t.Helper()
	var st wire.StateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st.Workers = nil
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterMatchesLocal is the forwarding tier's core equivalence
// guarantee: the same steps fed to a coordinator over two real worker
// processes and to the in-process sharded server produce byte-identical
// /metrics, /state (modulo the worker assignment field), and /snapshot —
// and the cluster's packed snapshot scales back down into an in-process
// shard.Restore.
func TestClusterMatchesLocal(t *testing.T) {
	const steps, perStep = 25, 4
	cfg := testCfg(2, 2)
	w1, _ := startWorker(t, cfg, t.TempDir())
	w2, _ := startWorker(t, cfg, t.TempDir())
	copts := fastDial()
	copts.Workers = []string{w1.Listener.Addr().String(), w2.Listener.Addr().String()}
	cl := startCluster(t, cfg, copts)
	local := startLocal(t, cfg)

	for i := 0; i < steps; i++ {
		reqs := spreadReqs(i, perStep)
		postStep(t, cl.URL, reqs)
		postStep(t, local.URL, reqs)
	}

	cm, lm := getBody(t, cl.URL+"/metrics"), getBody(t, local.URL+"/metrics")
	if !bytes.Equal(cm, lm) {
		t.Fatalf("/metrics diverged:\ncluster: %s\nlocal:   %s", cm, lm)
	}
	cs, ls := getBody(t, cl.URL+"/state"), getBody(t, local.URL+"/state")
	var st wire.StateResponse
	if err := json.Unmarshal(cs, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 || st.Workers[0] != copts.Workers[0] || st.Workers[1] != copts.Workers[1] {
		t.Fatalf("cluster /state workers = %v, want %v", st.Workers, copts.Workers)
	}
	if a, b := stateWithoutWorkers(t, cs), stateWithoutWorkers(t, ls); !bytes.Equal(a, b) {
		t.Fatalf("/state diverged:\ncluster: %s\nlocal:   %s", a, b)
	}

	csnap, lsnap := getBody(t, cl.URL+"/snapshot"), getBody(t, local.URL+"/snapshot")
	if !bytes.Equal(csnap, lsnap) {
		t.Fatalf("/snapshot diverged:\ncluster: %s\nlocal:   %s", csnap, lsnap)
	}
	// Scale back down: the packed cluster snapshot feeds the in-process
	// restore and continues from the same step.
	r, err := shard.Restore(cfg, newMtCK, csnap, engine.Options{})
	if err != nil {
		t.Fatalf("restore from cluster snapshot: %v", err)
	}
	if r.T() != steps {
		t.Fatalf("restored router at step %d, want %d", r.T(), steps)
	}
	if got, want := r.Cost(), st.Cost; got.Move != want.Move || got.Serve != want.Serve {
		t.Fatalf("restored cost %+v != cluster state cost %+v", got, want)
	}
}

// TestFailoverResendsUnexecutedStep kills a worker whose shard never saw
// the in-flight step (checkpoint at T == t): the coordinator must rehome
// the shard onto the survivor, restore the checkpoint, RESEND the batch,
// surface the rehoming as a typed SSE failover event — and end the run
// byte-identical to an uninterrupted one.
func TestFailoverResendsUnexecutedStep(t *testing.T) {
	const before, total, perStep = 5, 10, 4
	cfg := testCfg(2, 2)
	dir := t.TempDir() // shared: the survivor restores the victim's shards
	w1, _ := startWorker(t, cfg, dir)
	w2, _ := startWorker(t, cfg, dir)
	px := newTestProxy(t, w1.Listener.Addr().String())
	copts := fastDial()
	copts.Workers = []string{px.addr(), w2.Listener.Addr().String()}
	cl := startCluster(t, cfg, copts)
	local := startLocal(t, cfg)

	sse, err := http.Get(cl.URL + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()

	for i := 0; i < before; i++ {
		reqs := spreadReqs(i, perStep)
		postStep(t, cl.URL, reqs)
		postStep(t, local.URL, reqs)
	}
	// Crash worker 1 (cut at the proxy): its shard-0 checkpoint (shared
	// dir) stands at T == before, so the next step takes the resend path.
	px.kill()

	for i := before; i < total; i++ {
		reqs := spreadReqs(i, perStep)
		postStep(t, cl.URL, reqs)
		postStep(t, local.URL, reqs)
	}

	cm, lm := getBody(t, cl.URL+"/metrics"), getBody(t, local.URL+"/metrics")
	if !bytes.Equal(cm, lm) {
		t.Fatalf("/metrics diverged after failover:\ncluster: %s\nlocal:   %s", cm, lm)
	}
	cs, ls := getBody(t, cl.URL+"/state"), getBody(t, local.URL+"/state")
	if a, b := stateWithoutWorkers(t, cs), stateWithoutWorkers(t, ls); !bytes.Equal(a, b) {
		t.Fatalf("/state diverged after failover:\ncluster: %s\nlocal:   %s", a, b)
	}
	var st wire.StateResponse
	if err := json.Unmarshal(cs, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers[0] != copts.Workers[1] {
		t.Fatalf("shard 0 still assigned to the dead worker: %v", st.Workers)
	}

	ev := readFailoverEvent(t, sse.Body)
	if ev.V != wire.V1 || ev.Shard != 0 || ev.T != before || !ev.Resent {
		t.Fatalf("failover event = %+v, want shard 0 resent at step %d", ev, before)
	}
	if ev.From != copts.Workers[0] || ev.To != copts.Workers[1] {
		t.Fatalf("failover event route = %s → %s, want %s → %s", ev.From, ev.To, copts.Workers[0], copts.Workers[1])
	}
	if ev.RestoredT != before {
		t.Fatalf("failover event restored_t = %d, want %d (checkpoint before the step)", ev.RestoredT, before)
	}
}

// TestFailoverRecoversExecutedStep kills a worker AFTER its shard executed
// the in-flight step but before the coordinator saw the ack (checkpoint at
// T == t+1): resending would double-feed, so the coordinator must instead
// recover the executed step's exact outcome from the survivor's welcome —
// and still end byte-identical to an uninterrupted run.
func TestFailoverRecoversExecutedStep(t *testing.T) {
	const before, total, perStep = 5, 10, 4
	cfg := testCfg(2, 2)
	dir := t.TempDir()
	w1, _ := startWorker(t, cfg, dir)
	w2, _ := startWorker(t, cfg, dir)
	px := newTestProxy(t, w1.Listener.Addr().String())
	copts := fastDial()
	copts.Workers = []string{px.addr(), w2.Listener.Addr().String()}
	cl := startCluster(t, cfg, copts)
	local := startLocal(t, cfg)

	for i := 0; i < before; i++ {
		reqs := spreadReqs(i, perStep)
		postStep(t, cl.URL, reqs)
		postStep(t, local.URL, reqs)
	}

	// Feed shard 0's share of the NEXT step straight to worker 1 (behind
	// the coordinator's back, bypassing the proxy), then crash it — the
	// step executed and checkpointed, but no ack ever reached the
	// coordinator. That is exactly the crashed-after-execute window.
	reqs := spreadReqs(before, perStep)
	var shard0 []wire.Point
	for _, p := range reqs {
		if cfg.Partition.ShardOfPoint(toGeom([]wire.Point{p})[0]) == 0 {
			shard0 = append(shard0, p)
		}
	}
	direct, err := streamclient.Dial(w1.Listener.Addr().String(), "/shard/0/stream?floor=0", streamclient.Options{Dim: cfg.Dim})
	if err != nil {
		t.Fatal(err)
	}
	p, err := direct.Step(shard0)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := p.Wait(); err != nil || ack.T != before {
		t.Fatalf("direct step ack = %+v, %v", ack, err)
	}
	direct.Close()
	px.kill() // now the worker is gone for good, checkpoint at T == before+1

	for i := before; i < total; i++ {
		r := spreadReqs(i, perStep)
		postStep(t, cl.URL, r)
		postStep(t, local.URL, r)
	}

	cm, lm := getBody(t, cl.URL+"/metrics"), getBody(t, local.URL+"/metrics")
	if !bytes.Equal(cm, lm) {
		t.Fatalf("/metrics diverged after executed-step recovery:\ncluster: %s\nlocal:   %s", cm, lm)
	}
	cs, ls := getBody(t, cl.URL+"/state"), getBody(t, local.URL+"/state")
	if a, b := stateWithoutWorkers(t, cs), stateWithoutWorkers(t, ls); !bytes.Equal(a, b) {
		t.Fatalf("/state diverged after executed-step recovery:\ncluster: %s\nlocal:   %s", a, b)
	}

	// The coordinator must have recovered (not resent) the executed step.
	var st wire.StateResponse
	if err := json.Unmarshal(cs, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers[0] != copts.Workers[1] {
		t.Fatalf("shard 0 not rehomed: %v", st.Workers)
	}
}

// TestHeartbeatDetectsSilentWorker pins liveness-based failover: a worker
// that goes silent without closing its connections (a hung process, a
// black-holed network) is declared dead by the coordinator's heartbeat,
// and the next step fails over instead of hanging forever.
func TestHeartbeatDetectsSilentWorker(t *testing.T) {
	const before, total, perStep = 3, 6, 4
	cfg := testCfg(2, 2)
	dir := t.TempDir()
	w1, _ := startWorker(t, cfg, dir)
	w2, _ := startWorker(t, cfg, dir)
	px := newTestProxy(t, w1.Listener.Addr().String())

	copts := fastDial()
	copts.Heartbeat = 10 * time.Millisecond // timeout 30ms
	copts.Workers = []string{px.addr(), w2.Listener.Addr().String()}
	cl := startCluster(t, cfg, copts)

	for i := 0; i < before; i++ {
		postStep(t, cl.URL, spreadReqs(i, perStep))
	}
	// The proxy goes silent: established connections stay open but relay
	// nothing, new connections are refused. Only the heartbeat can notice.
	px.blackhole()
	time.Sleep(120 * time.Millisecond) // > 3 heartbeat timeouts

	for i := before; i < total; i++ {
		postStep(t, cl.URL, spreadReqs(i, perStep))
	}
	var st wire.StateResponse
	if err := json.Unmarshal(getBody(t, cl.URL+"/state"), &st); err != nil {
		t.Fatal(err)
	}
	if st.T != total {
		t.Fatalf("cluster at step %d after heartbeat failover, want %d", st.T, total)
	}
	if st.Workers[0] != copts.Workers[1] {
		t.Fatalf("shard 0 not rehomed off the silent worker: %v", st.Workers)
	}
}

// TestClusterTestsLeaveNoGoroutines runs two cluster tests as subtests and
// requires the goroutine count to settle back to where it started: the
// helpers' cleanups must finish the coordinator, or its worker streams and
// heartbeats outlive every test and pile up under -count=N.
func TestClusterTestsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("ClusterMatchesLocal", TestClusterMatchesLocal)
	t.Run("HeartbeatDetectsSilentWorker", TestHeartbeatDetectsSilentWorker)
	// Torn-down connections unwind asynchronously; poll until they have.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the cluster tests (%d before, %d after)", n-before, before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllWorkersDownIsTypedUnreachable pins the bounded reconnect storm:
// with every candidate gone, a step fails with a typed backend-unreachable
// error — surfaced as 502 through the HTTP layer — instead of retrying
// forever.
func TestAllWorkersDownIsTypedUnreachable(t *testing.T) {
	cfg := testCfg(2, 1)

	// At the backend layer: the typed error, its attempt accounting, and
	// its stickiness.
	wa, _ := startWorker(t, cfg, t.TempDir())
	pa := newTestProxy(t, wa.Listener.Addr().String())
	copts := fastDial()
	copts.Workers = []string{pa.addr()}
	co, err := NewCoordinator(cfg, copts, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Finish()
	if err := co.Step(toGeom(spreadReqs(0, 2))); err != nil {
		t.Fatal(err)
	}
	pa.kill()
	stepErr := co.Step(toGeom(spreadReqs(1, 2)))
	var ue *protocol.UnreachableError
	if !errors.As(stepErr, &ue) {
		t.Fatalf("step against a dead fleet = %v, want *protocol.UnreachableError", stepErr)
	}
	if ue.Attempts < copts.MaxAttempts {
		t.Fatalf("unreachable after %d attempts, want >= %d", ue.Attempts, copts.MaxAttempts)
	}
	if co.Step(toGeom(spreadReqs(2, 2))) != stepErr {
		t.Fatal("coordinator error must be sticky: the fleet may be out of lockstep")
	}

	// Through the full HTTP stack: the same failure surfaces as 502.
	wb, _ := startWorker(t, cfg, t.TempDir())
	pb := newTestProxy(t, wb.Listener.Addr().String())
	bopts := fastDial()
	bopts.Workers = []string{pb.addr()}
	cl := startCluster(t, cfg, bopts)
	postStep(t, cl.URL, spreadReqs(0, 2))
	pb.kill()
	buf, _ := json.Marshal(wire.StepRequest{Requests: spreadReqs(1, 2)})
	resp, err := http.Post(cl.URL+"/step", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST /step with the fleet down = %d (%s), want 502", resp.StatusCode, body)
	}
}

// TestWorkerFencesStaleIncarnation pins the floor token: a worker still
// hosting an old incarnation of a shard that advanced elsewhere must
// abort it and reload the newer checkpoint, not serve stale state.
func TestWorkerFencesStaleIncarnation(t *testing.T) {
	cfg := testCfg(2, 1)
	dir := t.TempDir()
	w1, _ := startWorker(t, cfg, dir)
	w2, _ := startWorker(t, cfg, dir)

	// Incarnation A on worker 1 executes steps 0 and 1.
	a, err := streamclient.Dial(w1.Listener.Addr().String(), "/shard/0/stream?floor=0", streamclient.Options{Dim: cfg.Dim})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := a.Step([]wire.Point{{-10, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	// The shard moves to worker 2 (same checkpoint dir) and advances.
	b, err := streamclient.Dial(w2.Listener.Addr().String(), "/shard/0/stream?floor=2", streamclient.Options{Dim: cfg.Dim})
	if err != nil {
		t.Fatal(err)
	}
	if w := b.Welcome(); w.T != 2 {
		t.Fatalf("worker 2 restored T = %d, want 2", w.T)
	}
	p, err := b.Step([]wire.Point{{-10, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Back to worker 1, which still hosts incarnation A at T=2. The floor
	// outruns it, so the worker must fence: abort the stale service and
	// reopen from the checkpoint worker 2 wrote at T=3.
	c, err := streamclient.Dial(w1.Listener.Addr().String(), "/shard/0/stream?floor=3", streamclient.Options{Dim: cfg.Dim})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := c.Welcome(); w.T != 3 {
		t.Fatalf("fenced worker answered T = %d, want 3 (reloaded from the newer checkpoint)", w.T)
	}
	if w := c.Welcome(); len(w.Ring) != 1 || w.Ring[0].T != 2 {
		t.Fatalf("fenced welcome recovery ring = %+v, want step 2 alone", w.Ring)
	}
}

// readFailoverEvent scans an SSE stream until a failover event arrives.
func readFailoverEvent(t *testing.T, body io.Reader) wire.FailoverEvent {
	t.Helper()
	var ev wire.FailoverEvent
	br := bufio.NewReader(body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "failover":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			return ev
		}
	}
}
