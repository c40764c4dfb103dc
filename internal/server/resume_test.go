package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/wire"
)

// TestMetricsSurviveRestart pins the resume-aware-observer contract: the
// checkpoint document persists the Metrics and MoveStats observer state,
// so a killed-and-resumed server reports /metrics and /state equal — byte
// for byte — to a server that was never interrupted, instead of counting
// from zero.
func TestMetricsSurviveRestart(t *testing.T) {
	const kill, total = 20, 45
	cfg := testConfig(2)
	ckpt := filepath.Join(t.TempDir(), "metrics.ckpt")
	opts := Options{CheckpointPath: ckpt, CheckpointEvery: 1}

	a, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), opts)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	driveSequential(t, tsA.URL, 0, kill)
	tsA.Close() // killed: no Close, no shutdown checkpoint

	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(cfg, multi.NewMtCK(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Close()

	// Before any resumed traffic the totals already cover the pre-crash
	// steps.
	var m wire.MetricsResponse
	getJSON(t, tsB.URL+"/metrics", &m)
	if m.Steps != kill || m.Requests != kill*2 {
		t.Fatalf("resumed metrics start at %d steps / %d requests, want %d / %d", m.Steps, m.Requests, kill, kill*2)
	}
	driveSequential(t, tsB.URL, kill, total)

	c, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(c.Handler())
	defer tsC.Close()
	defer c.Close()
	driveSequential(t, tsC.URL, 0, total)

	if mB, mC := getBody(t, tsB.URL+"/metrics"), getBody(t, tsC.URL+"/metrics"); !bytes.Equal(mB, mC) {
		t.Fatalf("killed-and-resumed /metrics != uninterrupted /metrics:\n%s\nvs\n%s", mB, mC)
	}
	if stB, stC := getBody(t, tsB.URL+"/state"), getBody(t, tsC.URL+"/state"); !bytes.Equal(stB, stC) {
		t.Fatalf("killed-and-resumed /state != uninterrupted /state:\n%s\nvs\n%s", stB, stC)
	}
}

// TestResumeLegacyBareSnapshot: a bare engine snapshot (the pre-wrapper
// checkpoint format, and what GET /snapshot returns) still resumes; the
// observers just start fresh.
func TestResumeLegacyBareSnapshot(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	driveSequential(t, ts.URL, 0, 5)
	bare := getBody(t, ts.URL+"/snapshot")
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(cfg, core.Fleet(core.NewMtC()), bare, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.T() != 5 {
		t.Fatalf("resumed at T=%d, want 5", r.T())
	}
	tsR := httptest.NewServer(r.Handler())
	defer tsR.Close()
	var m wire.MetricsResponse
	getJSON(t, tsR.URL+"/metrics", &m)
	if m.Steps != 0 {
		t.Fatalf("bare-snapshot resume must start observers fresh, got %d steps", m.Steps)
	}
}

// TestResumeLegacyCheckpointDocument: a checkpoint document written by
// the pre-envelope format (a "version" stamp, no "v") is refused rather
// than resumed, and the refusal leaves the file untouched.
func TestResumeLegacyCheckpointDocument(t *testing.T) {
	cfg := testConfig(2)
	ckpt := filepath.Join(t.TempDir(), "legacy.ckpt")
	a, err := New(cfg, multi.SpreadStarts(cfg, 5), multi.NewMtCK(), Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	driveSequential(t, tsA.URL, 0, 12)
	tsA.Close() // killed

	// Rewrite the file as the pre-envelope format did: "version", no "v".
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["v"]; !ok {
		t.Fatal("new checkpoints must carry the v stamp")
	}
	if _, ok := doc["version"]; ok {
		t.Fatal("new checkpoints must not carry the pre-envelope version stamp")
	}
	delete(doc, "v")
	doc["version"] = json.RawMessage(`1`)
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	if b, err := Resume(cfg, multi.NewMtCK(), legacy, Options{CheckpointPath: ckpt}); err == nil {
		b.Close()
		t.Fatal("a pre-envelope checkpoint must be refused, not resumed")
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, legacy) {
		t.Fatal("a refused resume rewrote the checkpoint file")
	}
}

// Test507NoDoubleFeed pins the executed-but-uncheckpointed contract from
// the client's side: a 507 means the step RAN — the session advanced and
// the batch is in /metrics — so a client that resends the batch feeds it
// again as a new step. The test drives three batches into a server whose
// checkpoints always fail and watches the executed step index advance.
func Test507NoDoubleFeed(t *testing.T) {
	cfg := testConfig(1)
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "x.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for want := 0; want < 3; want++ {
		resp, data := postJSON(t, ts.URL, wire.StepRequest{Requests: reqsFor(want, 1)})
		if resp.StatusCode != 507 {
			t.Fatalf("POST %d = %d: %s", want, resp.StatusCode, data)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if e.ExecutedT == nil || *e.ExecutedT != want {
			t.Fatalf("executed_t = %v, want %d: a 507'd batch was served, resending double-feeds", e.ExecutedT, want)
		}
	}
	var m wire.MetricsResponse
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Steps != 3 || m.Requests != 3 {
		t.Fatalf("metrics after three 507s = %d steps / %d requests, want 3 / 3 (each batch fed exactly once)", m.Steps, m.Requests)
	}
}

// TestRetryAfterMsUnderWindow: with an active coalescing window, a 429
// carries the window as a millisecond-resolution hint in the JSON body
// while the Retry-After header holds its whole-second ceiling.
func TestRetryAfterMsUnderWindow(t *testing.T) {
	const window = 25 * time.Millisecond
	cfg := testConfig(1)
	obs := &blockingObserver{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
		CoalesceWindow: window,
		QueueLimit:     1,
		Observers:      []engine.Observer{obs},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park the step loop inside a step, fill the queue, then overflow it.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		postJSON(t, ts.URL, wire.StepRequest{Requests: reqsFor(0, 1)})
	}()
	<-obs.entered
	if _, err := s.Service().Enqueue(nil); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL, wire.StepRequest{Requests: reqsFor(1, 1)})
	if resp.StatusCode != 429 {
		t.Fatalf("POST with full queue = %d: %s", resp.StatusCode, data)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMs != 25 {
		t.Fatalf("retry_after_ms = %d, want the 25ms coalescing window", e.RetryAfterMs)
	}
	if e.RetryAfterSec != 1 || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("whole-second ceiling = %d / header %q, want 1", e.RetryAfterSec, resp.Header.Get("Retry-After"))
	}

	obs.release <- struct{}{}
	<-obs.entered
	obs.release <- struct{}{}
	<-firstDone
}
