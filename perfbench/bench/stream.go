package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/streamclient"
	"repro/internal/wire"

	"repro/perfbench/span"
)

// frameRec is the generator's record of one frame: when it was due, when
// Client.Step began and returned, when its ack arrived, and the step
// that served it. Times are wall-clock Unix nanoseconds.
type frameRec struct {
	phase                         int
	id                            int64
	due, sendStart, sendEnd, recv int64
	t                             int
	failed                        bool
}

// inflight is one sent frame on its way to the ack receiver.
type inflight struct {
	p   *streamclient.Pending
	rec frameRec
	n   int
}

// ackSamples bounds the acks kept for the wire codec calibration.
const ackSamples = 4096

// streamSession is the generator's one stream connection: frames are
// written by the sender and their acks collected, in order, by a
// receiver goroutine that checks and counts each one.
type streamSession struct {
	client *streamclient.Client
	// queue carries sent frames to the receiver in send order; its
	// capacity bounds the frames in flight (a full queue blocks the
	// sender, which is backpressure, not loss).
	queue chan inflight
	// slots, when non-nil, is the closed loop's window: the receiver
	// returns one token, stamped with the ack's arrival, per ack.
	slots chan int64
	acked atomic.Int64
	done  chan struct{}

	// Receiver-owned until done closes.
	recs    []frameRec
	samples []wire.AckFrame
	tally   tally
	err     error
}

// maxInflight bounds the frames one session keeps in flight: above the
// largest ingest burst, so only the server's pace limits a burst.
const maxInflight = 1 << 14

func openStream(url string, dim int, window int) (*streamSession, error) {
	c, err := streamclient.Dial(url, "/stream", streamclient.Options{Dim: dim, Wire: wire.WireBinary})
	if err != nil {
		return nil, err
	}
	s := &streamSession{client: c, queue: make(chan inflight, maxInflight), done: make(chan struct{})}
	if window > 0 {
		s.slots = make(chan int64, window)
		now := span.Now()
		for i := 0; i < window; i++ {
			s.slots <- now
		}
	}
	go s.receive()
	return s, nil
}

func (s *streamSession) receive() {
	defer close(s.done)
	for f := range s.queue {
		ack, err := f.p.Wait()
		f.rec.recv = span.Now()
		if s.slots != nil {
			s.slots <- f.rec.recv
		}
		if err != nil {
			f.rec.failed = true
			if s.err == nil {
				s.err = fmt.Errorf("frame %d: %w", f.rec.id, err)
			}
		} else {
			f.rec.t = ack.T
			if terr := s.tally.add(f.rec.id, f.n, ack); terr != nil && s.err == nil {
				s.err = terr
			}
			if len(s.samples) < ackSamples {
				s.samples = append(s.samples, copyAck(ack))
			}
		}
		f.p.Release()
		s.recs = append(s.recs, f.rec)
		s.acked.Add(1)
	}
}

func copyAck(a wire.AckFrame) wire.AckFrame {
	out := a
	out.Positions = make([]wire.Point, len(a.Positions))
	for i, p := range a.Positions {
		out.Positions[i] = append(wire.Point(nil), p...)
	}
	out.Shards = append([]wire.ShardStep(nil), a.Shards...)
	return out
}

// send writes one frame due at due (Unix ns). In a closed loop it first
// takes a window slot, and the frame is due when that slot's ack arrived.
func (s *streamSession) send(reqs []wire.Point, phase int, due int64) error {
	if s.slots != nil {
		due = <-s.slots
	}
	start := span.Now()
	p, err := s.client.Step(reqs)
	if err != nil {
		return err
	}
	s.queue <- inflight{p: p, n: len(reqs), rec: frameRec{phase: phase, id: p.ID, due: due, sendStart: start, sendEnd: span.Now()}}
	return nil
}

// waitAcked waits until n frames have been acked, or the timeout.
func (s *streamSession) waitAcked(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.acked.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// close waits for every sent frame's ack and ends the connection.
func (s *streamSession) close() error {
	close(s.queue)
	<-s.done
	_ = s.client.Close() // bye after the last ack; nothing left to lose
	return s.err
}

// sseReader follows GET /metrics/stream and checks the per-step events.
type sseReader struct {
	cancel  context.CancelFunc
	done    chan struct{}
	events  atomic.Int64
	dropped atomic.Int64
	mu      sync.Mutex
	err     error
}

func openSSE(url string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /metrics/stream: %s", resp.Status)
	}
	r := &sseReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		event, lastT := "", -1
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "metrics":
				var ev wire.MetricsEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					r.fail(fmt.Errorf("sse: bad metrics event: %w", err))
					return
				}
				if ev.T <= lastT {
					r.fail(fmt.Errorf("sse: event for step %d after step %d", ev.T, lastT))
					return
				}
				lastT = ev.T
				r.events.Add(1)
				r.dropped.Add(int64(ev.Dropped))
			}
		}
	}()
	return r, nil
}

func (r *sseReader) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// close ends the subscription and reports any malformed or out-of-order
// event it saw.
func (r *sseReader) close() error {
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}
