package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// BenchmarkClusterVsLocal pins the coordinator's forwarding overhead: one
// op is one full POST /step round-trip of benchBatch requests, served
// either by the in-process sharded server ("local") or by a coordinator
// forwarding each shard's sub-batch to worker-hosted shard services over
// loopback TCP ("cluster"). Both sides run the identical serving core, so
// the delta is purely the extra network hop plus the merge.
func BenchmarkClusterVsLocal(b *testing.B) {
	const benchBatch = 8
	cfg := testCfg(2, 2)
	body, err := json.Marshal(wire.StepRequest{Requests: spreadReqs(0, benchBatch)})
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, url string) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(url+"/step", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("POST /step = %d", resp.StatusCode)
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		s, err := server.NewSharded(cfg, shard.Starts(cfg, testSpan), newMtCK, server.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() {
			ts.Close()
			_ = s.Close()
		})
		run(b, ts.URL)
	})

	b.Run("cluster", func(b *testing.B) {
		var addrs []string
		for i := 0; i < 2; i++ {
			w, err := NewWorker(cfg, WorkerOptions{NewAlg: newMtCK, CheckpointDir: b.TempDir(), Span: testSpan})
			if err != nil {
				b.Fatal(err)
			}
			wts := httptest.NewServer(w)
			b.Cleanup(func() {
				wts.CloseClientConnections()
				wts.Close()
				_ = w.Close()
			})
			addrs = append(addrs, wts.Listener.Addr().String())
		}
		copts := fastDial()
		copts.Workers = addrs
		svc, err := NewService(cfg, copts, protocol.Options{})
		if err != nil {
			b.Fatal(err)
		}
		srv := server.NewFromService(cfg, svc)
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.CloseClientConnections()
			ts.Close()
			_ = srv.Close()
		})
		run(b, ts.URL)
	})
}

// BenchmarkClusterPipelinedVsLockstep pins what the pipelined window buys:
// one op is one global step driven straight at the coordinator backend —
// "lockstep" pays one full worker round-trip plus one checkpoint fsync per
// step (Step), "pipelined" keeps a window of 8 in flight and lets the
// workers group-commit 8 steps per fsync (StepAsync/ResolveOldest at
// steady state). Same workers, same loopback TCP, same serving core; the
// delta is the overlap.
func BenchmarkClusterPipelinedVsLockstep(b *testing.B) {
	const benchBatch = 8
	cfg := testCfg(2, 2)

	run := func(b *testing.B, window, commitEvery int) {
		b.Helper()
		w1, _ := startWindowedWorker(b, cfg, b.TempDir(), window, commitEvery)
		w2, _ := startWindowedWorker(b, cfg, b.TempDir(), window, commitEvery)
		copts := fastDial()
		copts.Workers = []string{w1.Listener.Addr().String(), w2.Listener.Addr().String()}
		copts.Window = window
		co, err := NewCoordinator(cfg, copts, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { co.Finish() })
		if co.Window() != window {
			b.Fatalf("negotiated window = %d, want %d", co.Window(), window)
		}
		inflight := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if inflight == co.Window() {
				if err := co.ResolveOldest(); err != nil {
					b.Fatal(err)
				}
				inflight--
			}
			if err := co.StepAsync(toGeom(spreadReqs(i, benchBatch))); err != nil {
				b.Fatal(err)
			}
			inflight++
		}
		for inflight > 0 {
			if err := co.ResolveOldest(); err != nil {
				b.Fatal(err)
			}
			inflight--
		}
		b.StopTimer()
		b.ReportMetric(float64(co.Window()), "window")
	}

	b.Run("lockstep", func(b *testing.B) { run(b, 1, 1) })
	b.Run("pipelined", func(b *testing.B) { run(b, 8, 8) })
}
