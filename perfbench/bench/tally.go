package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// tally is the client side of the reconciliation gate: it checks that
// acks come back exactly once, in order, and sums what they report so
// the totals can be compared with the server's /metrics.
type tally struct {
	frames   int64
	requests int
	steps    int
	lastT    int
	cost     core.Cost
}

// add checks and counts one ack for a frame of n requests with the given
// id. Frames coalesced into one engine step share its T and cost, so the
// cost is summed once per distinct T, in step order — the order the
// server's metrics observer summed it in.
func (t *tally) add(id int64, n int, ack wire.AckFrame) error {
	if ack.ID != id {
		return fmt.Errorf("ack for frame %d carries id %d", id, ack.ID)
	}
	if ack.Accepted != n {
		return fmt.Errorf("frame %d: %d requests accepted, %d sent", id, ack.Accepted, n)
	}
	if t.frames > 0 && ack.T < t.lastT {
		return fmt.Errorf("frame %d acked at step %d after a frame acked at step %d", id, ack.T, t.lastT)
	}
	if t.frames == 0 || ack.T > t.lastT {
		t.steps++
		t.lastT = ack.T
		t.cost = t.cost.Add(core.Cost{Move: ack.Cost.Move, Serve: ack.Cost.Serve})
	}
	t.frames++
	t.requests += ack.Accepted
	return nil
}

// reconcile compares the client's sums with the server's counters; the
// generator is the server's only client, so they must agree exactly.
func (t *tally) reconcile(m wire.MetricsResponse) error {
	switch {
	case m.Steps != t.steps || m.Steps != t.lastT+1:
		return fmt.Errorf("reconcile: server ran %d steps, acks name %d steps ending at %d", m.Steps, t.steps, t.lastT)
	case m.Requests != t.requests:
		return fmt.Errorf("reconcile: server counted %d requests, acks %d", m.Requests, t.requests)
	case m.Cost.Move != t.cost.Move || m.Cost.Serve != t.cost.Serve:
		return fmt.Errorf("reconcile: server cost %+v, acks sum to %+v", m.Cost, t.cost)
	case m.Rejected != 0:
		return fmt.Errorf("reconcile: server rejected %d batches", m.Rejected)
	}
	return nil
}
