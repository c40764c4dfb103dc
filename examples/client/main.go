// Client is a load generator for cmd/mobserve: concurrent workers POST
// request batches from a named internal/workload generator, honor 429
// backpressure by backing off and retrying, and finally reconcile their
// own counters against the server's GET /metrics — every accepted request
// must be counted exactly once server-side, and the per-step costs the
// workers saw (summed once per step) must equal the server's running cost
// totals.
//
// The load comes from the same deterministic workload registry the
// scenario lab (internal/lab, cmd/moblab) sweeps over: -workload picks
// the generator by name (uniform, hotspot, clusters, burst, zipf, drift)
// and -seed pins the sequence, so a load pattern explored in the lab can
// be replayed against a live server verbatim. The whole instance is
// generated up front; transports only deliver it.
//
// With -stream the same workload rides the persistent streaming transport
// instead: one TCP connection is upgraded via POST /stream and every batch
// becomes a pipelined step frame (up to -inflight of them in flight),
// acked in order by the server. A stream is never refused for load: when
// the server's queue is full it stops reading the connection, so the
// client's writes block until a slot frees. Same tallies, same
// reconciliation — just no per-request HTTP overhead.
//
// HTTP retry backoff carries ±20% jitter, so a fleet of clients thrown
// back by the bounded queue does not re-stampede it in lockstep.
//
// The reconciliation assumes this client is the server's only traffic
// source since it started: steps fed by other clients (or served before a
// checkpoint/restore) are in the server's totals but not in ours.
//
//	mobserve -addr :8080 &
//	go run ./examples/client -n 10000 -workers 8
//	go run ./examples/client -n 10000 -stream                # one pipelined connection
//	go run ./examples/client -n 2000 -workers 16 -batch 1   # more contention
//
// Against a sharded server, -workload clusters (or zipf) spreads load
// over several sites so every shard of `mobserve -shards N` sees traffic:
//
//	mobserve -addr :8080 -shards 4 -k 2 &
//	go run ./examples/client -n 10000 -workload clusters
//
// With -workload drift the load is one tight hotspot that sweeps across
// the space over the whole run — the adversarial pattern for a static
// shard layout, and the workload dynamic rebalancing is built for.
// Compare the final cost of a static server against one started with
// -rebalance threshold:
//
//	mobserve -addr :8080 -shards 4 -k 2 -rebalance threshold &
//	go run ./examples/client -n 20000 -workload drift
//
// Point it at a server started with a tiny -queue to watch backpressure:
//
//	mobserve -addr :8080 -queue 1 -window 10ms &
//	go run ./examples/client -workers 16
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/streamclient"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "mobserve base URL")
		n        = flag.Int("n", 10_000, "total number of requests to send (whole batches; burst phases vary it)")
		batch    = flag.Int("batch", 5, "requests per POST /step call (or per stream frame)")
		workers  = flag.Int("workers", 8, "concurrent client workers (HTTP mode)")
		dim      = flag.Int("dim", 2, "request dimension (must match the server)")
		wlName   = flag.String("workload", "hotspot", "workload generator: uniform|hotspot|clusters|burst|zipf|drift")
		seed     = flag.Uint64("seed", 1, "workload random seed (same seed, same sequence)")
		stream   = flag.Bool("stream", false, "pipeline step frames over one persistent POST /stream connection instead of per-request HTTP")
		inflight = flag.Int("inflight", 32, "stream mode: maximum unacknowledged frames in flight")
		wireOpt  = flag.String("wire", "auto", "stream mode encoding: auto (negotiate binary, fall back to ndjson) | binary (require) | ndjson (pin)")
	)
	flag.Parse()
	if !strings.Contains(*addr, "://") {
		// Accept a bare host:port; every code path (http.Get and the
		// stream dial) wants a full URL.
		*addr = "http://" + *addr
	}
	batches := (*n + *batch - 1) / *batch
	gen, err := makeLoad(*wlName, *seed, *dim, *batch, batches)
	if err != nil {
		fmt.Fprintf(os.Stderr, "client: %v\n", err)
		os.Exit(1)
	}
	mode := fmt.Sprintf("%d workers", *workers)
	if *stream {
		mode = fmt.Sprintf("one stream, %d frames in flight", *inflight)
	}
	fmt.Printf("driving %d %s requests (%d batches, seed %d) with %s against %s\n",
		gen.total, *wlName, batches, *seed, mode, *addr)

	var (
		accepted, retries int
		costs             map[int]wire.Cost
	)
	start := time.Now()
	if *stream {
		accepted, costs, err = driveStream(*addr, gen, *dim, *inflight, *wireOpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "client: stream: %v\n", err)
			os.Exit(1)
		}
	} else {
		accepted, retries, costs = driveHTTP(*addr, gen, *workers)
	}
	elapsed := time.Since(start)

	fmt.Printf("sent %d requests in %v (%.0f req/s), %d batches coalesced into %d steps, %d backoff-retries\n",
		accepted, elapsed.Round(time.Millisecond), float64(accepted)/elapsed.Seconds(),
		batches, len(costs), retries)

	// Reconcile with the server: sum the shared per-step costs once per
	// step, in step order, and compare against /metrics.
	var m wire.MetricsResponse
	if err := get(*addr+"/metrics", &m); err != nil {
		fmt.Fprintf(os.Stderr, "client: metrics: %v\n", err)
		os.Exit(1)
	}
	steps := make([]int, 0, len(costs))
	for s := range costs {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	var total float64
	for _, s := range steps {
		total += costs[s].Total
	}
	fmt.Printf("server metrics: %d steps, %d requests, cost %.6g (avg/step %.4g), %d rejected\n",
		m.Steps, m.Requests, m.Cost.Total, m.AvgStepCost, m.Rejected)
	for _, sh := range m.Shards {
		fmt.Printf("  shard %d: %d requests, cost %.6g\n", sh.Shard, sh.Requests, sh.Cost.Total)
	}

	ok := true
	if m.Requests != accepted {
		ok = false
		fmt.Printf("MISMATCH: server counted %d requests, client sent %d\n", m.Requests, accepted)
	}
	if rel := math.Abs(total-m.Cost.Total) / (1 + math.Abs(total)); rel > 1e-9 {
		ok = false
		fmt.Printf("MISMATCH: client-side cost sum %.9g vs server %.9g (was other traffic served?)\n", total, m.Cost.Total)
	}
	if ok {
		fmt.Println("reconciled: client-side sums equal server /metrics")
	} else {
		os.Exit(1)
	}
}

// load is the pre-generated request sequence: one wire-ready batch per
// step of a registry workload's instance. Generating up front keeps the
// transports pure delivery — the same sequence the lab would replay.
type load struct {
	batches []wire.StepRequest
	total   int
}

// makeLoad builds the instance from the named generator: T = batches
// steps, batchSize requests per step (the burst generator varies counts
// by phase, as it does in the lab).
func makeLoad(name string, seed uint64, dim, batchSize, batches int) (load, error) {
	g, err := workload.ByName(name)
	if err != nil {
		return load{}, err
	}
	g = workload.WithRequests(g, batchSize)
	cfg := core.Config{Dim: dim, D: 2, M: 1, Delta: 0.5}
	in := g.Generate(xrand.NewStream(seed, 0), cfg, batches)
	out := load{batches: make([]wire.StepRequest, len(in.Steps))}
	for i, step := range in.Steps {
		out.batches[i] = wire.StepRequest{Requests: wire.FromPoints(step.Requests)}
		out.total += len(step.Requests)
	}
	return out, nil
}

// driveHTTP is the per-request transport: a pool of workers posting
// batches, each call blocking for its step's outcome.
func driveHTTP(addr string, gen load, workers int) (accepted, retries int, costs map[int]wire.Cost) {
	type tally struct {
		accepted int
		retries  int
		costs    map[int]wire.Cost
	}
	tallies := make([]tally, workers)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tallies[w].costs = map[int]wire.Cost{}
			for b := range work {
				resp, r, err := post(addr, gen.batches[b])
				if err != nil {
					fmt.Fprintf(os.Stderr, "client: batch %d: %v\n", b, err)
					os.Exit(1)
				}
				tallies[w].accepted += resp.Accepted
				tallies[w].retries += r
				tallies[w].costs[resp.T] = resp.Cost
			}
		}(w)
	}
	for b := range gen.batches {
		work <- b
	}
	close(work)
	wg.Wait()

	costs = map[int]wire.Cost{}
	for _, t := range tallies {
		accepted += t.accepted
		retries += t.retries
		for step, c := range t.costs {
			costs[step] = c
		}
	}
	return accepted, retries, costs
}

// driveStream is the pipelined transport, built on the shared
// internal/streamclient package (the same client the cluster coordinator
// uses): one upgraded connection, every batch a pipelined step frame, up
// to inflight of them unacknowledged. A busy server slows the writes
// down instead of refusing frames; acks are tallied exactly like HTTP
// responses.
func driveStream(addr string, gen load, dim, inflight int, wireOpt string) (accepted int, costs map[int]wire.Cost, err error) {
	c, err := streamclient.Dial(addr, "/stream", streamclient.Options{Dim: dim, Wire: wireOpt})
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	w := c.Welcome()
	fmt.Printf("stream open: %s at step %d (dim %d, %s frames)\n", w.Algorithm, w.T, w.Dim, c.Wire())

	// Writer: pipeline fresh frames as the in-flight window allows. The
	// semaphore is released per ack.
	sem := make(chan struct{}, inflight)
	pends := make(chan *streamclient.Pending, inflight)
	writeErr := make(chan error, 1)
	go func() {
		defer close(pends)
		for b := range gen.batches {
			sem <- struct{}{}
			p, err := c.Step(gen.batches[b].Requests)
			if err != nil {
				writeErr <- err
				return
			}
			pends <- p
		}
	}()

	// Reader: every frame is eventually answered by exactly one ack (or
	// the connection's fatal error).
	costs = map[int]wire.Cost{}
	for p := range pends {
		ack, err := p.Wait()
		if err != nil {
			return 0, nil, err
		}
		accepted += ack.Accepted
		costs[ack.T] = ack.Cost
		p.Release() // recycle the pooled frame once the ack is tallied
		<-sem
	}
	select {
	case err := <-writeErr:
		return 0, nil, err
	default:
	}
	return accepted, costs, nil
}

// post sends one batch, retrying on 429 after the server's backoff hint:
// the JSON body's retry_after_ms when present (millisecond resolution),
// falling back to the whole-second Retry-After header, capped so a coarse
// header cannot stall the generator, and jittered ±20% so concurrent
// clients desynchronize. It returns the step outcome and how many times
// it was told to back off.
func post(addr string, body wire.StepRequest) (wire.StepResponse, int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return wire.StepResponse{}, 0, err
	}
	retries := 0
	for {
		resp, err := http.Post(addr+"/step", "application/json", bytes.NewReader(buf))
		if err != nil {
			return wire.StepResponse{}, retries, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return wire.StepResponse{}, retries, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var sr wire.StepResponse
			if err := wire.UnmarshalStrict(data, &sr); err != nil {
				return wire.StepResponse{}, retries, err
			}
			return sr, retries, nil
		case http.StatusTooManyRequests:
			retries++
			wait := 5 * time.Millisecond
			var e wire.ErrorResponse
			// Best-effort probe for a retry hint: a 429 body that fails to
			// parse just falls back to the Retry-After header, so leniency
			// here cannot corrupt state.
			//moblint:rawdecode best-effort 429 retry-hint probe with header fallback
			if err := json.Unmarshal(data, &e); err == nil && e.RetryAfterMs > 0 {
				wait = time.Duration(e.RetryAfterMs) * time.Millisecond
			} else if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				wait = time.Duration(sec) * time.Second
			}
			if wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			time.Sleep(streamclient.Jitter(wait))
		default:
			return wire.StepResponse{}, retries, fmt.Errorf("POST /step: %s: %s", resp.Status, data)
		}
	}
}

func get(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// /metrics and /state feed the reconciliation check; decode them as
	// strictly as the frames, so a schema drift fails loudly here rather
	// than as a bogus mismatch report.
	return wire.UnmarshalStrict(data, v)
}
