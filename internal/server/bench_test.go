package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// BenchmarkStreamVsHTTP compares ingestion throughput of the two
// transports feeding the same serving core: one op is one batch of
// benchBatch requests, submitted either as a full POST /step round-trip
// (request, engine step, response — the client waits out every round
// trip) or as one pipelined NDJSON frame on a persistent /stream
// connection (up to benchInflight frames in flight; the server coalesces
// them into engine steps and acks in order).
func BenchmarkStreamVsHTTP(b *testing.B) {
	const (
		benchBatch    = 8
		benchInflight = 64
	)
	newServer := func(b *testing.B) (*Server, *httptest.Server) {
		b.Helper()
		cfg := testConfig(1)
		s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
			QueueLimit: 4 * benchInflight,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return s, ts
	}

	b.Run("http", func(b *testing.B) {
		_, ts := newServer(b)
		client := ts.Client()
		body, err := json.Marshal(wire.StepRequest{Requests: reqsFor(0, benchBatch)})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(ts.URL+"/step", "application/json", bytes.NewReader(body))
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
		b.StopTimer()
		reportReqRate(b, benchBatch)
	})

	b.Run("stream", func(b *testing.B) {
		_, ts := newServer(b)
		c := dialStream(b, ts)
		c.hello(0)
		frame, err := json.Marshal(wire.StepFrame{V: wire.V1, Type: wire.FrameStep, ID: 1, Requests: reqsFor(0, benchBatch)})
		if err != nil {
			b.Fatal(err)
		}
		frame = append(frame, '\n')

		// The pipelining window: the writer runs ahead of the acks, but
		// stays under the server's queue bound so nothing is throttled.
		sem := make(chan struct{}, benchInflight)
		writeErr := make(chan error, 1)
		b.ResetTimer()
		go func() {
			bw := bufio.NewWriter(c.conn)
			for i := 0; i < b.N; i++ {
				sem <- struct{}{}
				if _, err := bw.Write(frame); err != nil {
					writeErr <- err
					return
				}
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
			}
		}()
		for acked := 0; acked < b.N; acked++ {
			select {
			case err := <-writeErr:
				b.Fatal(err)
			default:
			}
			line, err := c.br.ReadBytes('\n')
			if err != nil {
				b.Fatal(err)
			}
			head, err := wire.PeekFrame(line)
			if err != nil {
				b.Fatal(err)
			}
			if head.Type != wire.FrameAck {
				b.Fatalf("got %s frame mid-pipeline: %s", head.Type, line)
			}
			<-sem
		}
		b.StopTimer()
		reportReqRate(b, benchBatch)
	})
}

// BenchmarkStreamBinaryVsNDJSON compares the two stream encodings feeding
// the same serving core over identical pipelined connections: one op is
// one frame of benchBatch requests, sent either as a pre-marshaled NDJSON
// line or as a pre-encoded binary frame (up to benchInflight in flight).
// Both halves measure the full loop — socket, decode, engine step, ack
// encode, socket — so the delta is the encoding work itself plus the
// allocation pressure it induces.
func BenchmarkStreamBinaryVsNDJSON(b *testing.B) {
	const (
		benchBatch    = 8
		benchInflight = 64
	)
	newServer := func(b *testing.B) *httptest.Server {
		b.Helper()
		cfg := testConfig(1)
		s, err := New(cfg, []geom.Point{geom.NewPoint(0, 0)}, core.Fleet(core.NewMtC()), Options{
			QueueLimit: 4 * benchInflight,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return ts
	}

	b.Run("ndjson", func(b *testing.B) {
		ts := newServer(b)
		c := dialStream(b, ts)
		c.hello(0)
		frame, err := json.Marshal(wire.StepFrame{V: wire.V1, Type: wire.FrameStep, ID: 1, Requests: reqsFor(0, benchBatch)})
		if err != nil {
			b.Fatal(err)
		}
		frame = append(frame, '\n')

		// Warm the connection with a pipelined burst at full window
		// depth — first-step session setup, pool fills, reply-queue
		// growth, and bufio growth happen here, not in the timed
		// region, so allocs/op reflects the steady state even at the
		// small fixed -benchtime counts CI uses.
		bw := bufio.NewWriter(c.conn)
		for i := 0; i < 2*benchInflight; i++ {
			if _, err := bw.Write(frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2*benchInflight; i++ {
			if _, err := c.br.ReadBytes('\n'); err != nil {
				b.Fatal(err)
			}
		}

		sem := make(chan struct{}, benchInflight)
		writeErr := make(chan error, 1)
		b.ReportAllocs()
		b.ResetTimer()
		go func() {
			for i := 0; i < b.N; i++ {
				sem <- struct{}{}
				if _, err := bw.Write(frame); err != nil {
					writeErr <- err
					return
				}
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
			}
		}()
		for acked := 0; acked < b.N; acked++ {
			select {
			case err := <-writeErr:
				b.Fatal(err)
			default:
			}
			line, err := c.br.ReadBytes('\n')
			if err != nil {
				b.Fatal(err)
			}
			head, err := wire.PeekFrame(line)
			if err != nil {
				b.Fatal(err)
			}
			if head.Type != wire.FrameAck {
				b.Fatalf("got %s frame mid-pipeline: %s", head.Type, line)
			}
			<-sem
		}
		b.StopTimer()
		reportReqRate(b, benchBatch)
	})

	b.Run("binary", func(b *testing.B) {
		ts := newServer(b)
		c := dialStream(b, ts)
		if w := c.helloWire(0, wire.WireBinary); w.Wire != wire.WireBinary {
			b.Fatalf("server declined binary: welcome wire = %q", w.Wire)
		}
		payload := wire.AppendStepFrom(nil, wire.V1, 1, reqsFor(0, benchBatch))

		// Same full-depth pipelined warmup as the ndjson half: keep
		// one-time setup allocations out of the timed region.
		bw := bufio.NewWriter(c.conn)
		var ackBuf []byte
		for i := 0; i < 2*benchInflight; i++ {
			if err := wire.WriteBinaryFrame(bw, wire.BinStep, payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2*benchInflight; i++ {
			if _, _, err := wire.ReadBinaryFrame(c.br, &ackBuf, wire.DefaultMaxFrame); err != nil {
				b.Fatal(err)
			}
		}

		sem := make(chan struct{}, benchInflight)
		writeErr := make(chan error, 1)
		b.ReportAllocs()
		b.ResetTimer()
		go func() {
			for i := 0; i < b.N; i++ {
				sem <- struct{}{}
				if err := wire.WriteBinaryFrame(bw, wire.BinStep, payload); err != nil {
					writeErr <- err
					return
				}
				if err := bw.Flush(); err != nil {
					writeErr <- err
					return
				}
			}
		}()
		for acked := 0; acked < b.N; acked++ {
			select {
			case err := <-writeErr:
				b.Fatal(err)
			default:
			}
			tag, _, err := wire.ReadBinaryFrame(c.br, &ackBuf, wire.DefaultMaxFrame)
			if err != nil {
				b.Fatal(err)
			}
			if tag != wire.BinAck {
				b.Fatalf("got binary tag 0x%02x mid-pipeline, want ack", tag)
			}
			<-sem
		}
		b.StopTimer()
		reportReqRate(b, benchBatch)
	})
}

// reportReqRate turns the measured wall-clock into a requests-per-second
// metric so the transports' sustained ingestion rates sit next to their
// ns/op in the bench output.
func reportReqRate(b *testing.B, batch int) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*batch)/secs, "req/s")
	}
}
