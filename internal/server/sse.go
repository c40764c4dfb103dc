// The push side of the metrics API: GET /metrics/stream serves the
// protocol layer's Watch subscription as server-sent events, one event per
// executed engine step, so dashboards follow the session without polling
// GET /metrics.

package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/wire"
)

func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported: response cannot be flushed")
		return
	}
	// Subscribe before answering 200: a client that steps as soon as the
	// headers arrive must find its events already being collected. The
	// subscription lives until the client goes away or the server closes;
	// the protocol layer's drop policy guarantees a slow reader here can
	// never stall the step loop — it just loses events, and the tally
	// rides on the next delivered one (the "dropped" field).
	events := s.svc.Watch(r.Context())
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for ev := range events {
		data, err := json.Marshal(wire.MetricsEvent{
			V:           wire.V1,
			T:           ev.T,
			Batched:     ev.Batched,
			StepCost:    wire.FromCost(ev.StepCost),
			Steps:       ev.Steps,
			Requests:    ev.Requests,
			Cost:        wire.FromCost(ev.Cost),
			AvgStepCost: ev.AvgStepCost,
			QueueDepth:  ev.QueueDepth,
			Rejected:    ev.Rejected,
			Dropped:     ev.Dropped,
		})
		if err != nil {
			return
		}
		// SSE framing: the step index doubles as the event id, so
		// EventSource clients see a resumable cursor.
		if _, err := w.Write([]byte("id: " + strconv.Itoa(ev.T) + "\nevent: metrics\ndata: " + string(data) + "\n\n")); err != nil {
			return
		}
		// A step that migrated a server emits a second, typed event right
		// after its metrics, so layout changes arrive in order with the
		// load that triggered them.
		if rb := ev.Rebalance; rb != nil {
			data, err := json.Marshal(wire.RebalanceEvent{
				V:      wire.V1,
				T:      rb.T,
				From:   rb.From,
				To:     rb.To,
				Server: wire.Point(rb.Server),
				Ks:     rb.Ks,
			})
			if err != nil {
				return
			}
			if _, err := w.Write([]byte("event: rebalance\ndata: " + string(data) + "\n\n")); err != nil {
				return
			}
		}
		// A step during which the coordinator rehomed shards (cluster mode)
		// emits one typed event per ownership change, in order, so a
		// dashboard tracking the shard→worker assignment stays in sync.
		for _, fo := range ev.Failovers {
			fo.V = wire.V1
			data, err := json.Marshal(fo)
			if err != nil {
				return
			}
			if _, err := w.Write([]byte("event: failover\ndata: " + string(data) + "\n\n")); err != nil {
				return
			}
		}
		fl.Flush()
	}
}
