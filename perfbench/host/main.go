// Command host is the benchmark's process under test for the ingest and
// durable workloads. It wires the serving stack option for option as
// cmd/mobserve (mode ingest) and cmd/mobcluster (mode durable) do, on
// loopback listeners; with -trace it additionally puts the benchmark's
// timing wrappers on the backend and the algorithms, and writes the
// recorded spans to the named file at exit.
//
//	host -mode ingest [-addr 127.0.0.1:0]
//	host -mode durable -ckpt-dir DIR
//
// In durable mode the coordinator and both shard workers run in this one
// process, each behind its own loopback listener, so the wrappers fit and
// every server-side span shares one clock. The host prints "ready <url>"
// once it serves, marks the runtime counters on SIGUSR1 and SIGUSR2 (the
// generator's timed window), and on SIGTERM drains, shuts down in the
// commands' order and writes its stats to -stats.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/multi"
	"repro/internal/protocol"
	"repro/internal/server"

	"repro/perfbench/proc"
	"repro/perfbench/span"
	"repro/perfbench/wrap"
)

// The wiring each mode serves, fixed: the benchmark runs every workload
// with exactly these values.
const (
	dim   = 2
	pageD = 2   // page weight D
	capM  = 1   // offline movement cap m
	delta = 0.5 // augmentation delta

	// ingest: mobserve -dim 2 -k 1 -window 0 -queue 65536 -wire binary.
	// The queue bound is above twice the benchmark's largest burst (20500
	// frames), so only a real backlog throttles.
	ingestQueue = 1 << 16

	// durable: mobcluster -dim 2 -shards 2 -span 25 -k 2 -window 8
	// -commit-every 8, and -coalesce 0 -heartbeat 10s on the coordinator.
	// One ping per interval rides next to a thousand or more steps a
	// second, so the interval barely touches the measurement; what it sets
	// is the silence (3×) after which a worker is declared dead. At
	// mobcluster's default 1s, a stall of over 3s on a shared virtual
	// machine failed a healthy worker over to itself mid-run.
	durableShards    = 2
	durableK         = 2
	durableSpan      = 25
	durableWindow    = 8
	durableCommit    = 8
	durableHeartbeat = 10 * time.Second
)

type options struct {
	mode, addr, ckptDir  string
	tracePath, statsPath string
}

func main() {
	var o options
	flag.StringVar(&o.mode, "mode", "", "ingest (mobserve wiring) | durable (mobcluster coordinator + 2 workers)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address of the served API")
	flag.StringVar(&o.ckptDir, "ckpt-dir", "", "durable: worker checkpoint directory")
	flag.StringVar(&o.tracePath, "trace", "", "write spans here at exit (enables the timing wrappers)")
	flag.StringVar(&o.statsPath, "stats", "", "write exit stats here")
	flag.Parse()

	// Subscribe before serving, so a mark or stop signal sent right after
	// "ready" is never lost to the default handler.
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt, syscall.SIGUSR1, syscall.SIGUSR2)

	var rec *span.Recorder
	if o.tracePath != "" {
		rec = &span.Recorder{}
	}
	var (
		h   *hosted
		err error
	)
	switch o.mode {
	case "ingest":
		h, err = startIngest(o, rec)
	case "durable":
		h, err = startDurable(o, rec)
	default:
		err = fmt.Errorf("unknown -mode %q (ingest|durable)", o.mode)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ready http://%s\n", h.addr)

	var st proc.Stats
	for sig := range sigs {
		if sig == syscall.SIGUSR1 || sig == syscall.SIGUSR2 {
			st.Marks = append(st.Marks, proc.TakeMark())
			continue
		}
		break
	}
	signal.Stop(sigs)
	h.stop()
	st.StreamDials = h.dials.Load()
	if h.coord != nil {
		st.Failovers = h.coord.Failovers()
		st.InflightMean = h.coord.InflightMean()
	}
	if rec != nil {
		if err := span.WriteFile(o.tracePath, rec.Spans()); err != nil {
			fatal(err)
		}
	}
	if st.PeakRSSKB, err = proc.PeakRSSKB("self"); err != nil {
		fatal(err)
	}
	if o.statsPath != "" {
		data, err := json.Marshal(st)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(o.statsPath, data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// hosted is one running system under test.
type hosted struct {
	addr  string
	stop  func()
	dials atomic.Int64
	coord *wrap.Coordinator
}

// startIngest wires mobserve's single-server, checkpoint-free path:
// protocol.New over a fresh MtC engine session, mounted by the HTTP
// server with the streaming endpoints on. protocol.New is NewFromBackend over
// engine.NewSession, which is what lets the traced host slip the session
// wrapper in between.
func startIngest(o options, rec *span.Recorder) (*hosted, error) {
	cfg := core.Config{Dim: dim, D: pageD, M: capM, Delta: delta, K: 1}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	newAlg := func() core.FleetAlgorithm { return core.Fleet(core.NewMtC()) }
	starts := []geom.Point{geom.Zero(cfg.Dim)}
	steps := &wrap.Steps{}
	if rec != nil {
		newAlg = wrap.Algs(newAlg, rec, "core.move", "engine.step", steps)
	}
	opts := server.Options{QueueLimit: ingestQueue, CheckpointEvery: 1} // no coalescing wait
	svc, err := protocol.NewFromBackend(cfg, func(eopts engine.Options) (protocol.Backend, error) {
		sess, err := engine.NewSession(cfg, starts, newAlg(), eopts)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return sess, nil
		}
		return wrap.Backend(sess, rec, "engine.step", steps)
	}, opts)
	if err != nil {
		return nil, err
	}
	// The stream wire policy is left at its default, binary, as mobserve's
	// -wire binary leaves it.
	srv := server.NewFromService(cfg, svc)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.HandlerWith(true)}
	done := serve(httpSrv, ln)
	h := &hosted{addr: ln.Addr().String()}
	h.stop = func() {
		// mobserve's order: close the service (ending Watch streams), then
		// the listener, then finish the session.
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "host: close:", err)
		}
		shutdown(httpSrv, done)
		srv.Finish()
	}
	return h, nil
}

// startDurable wires mobcluster's two roles into one process: two shard
// workers on their own loopback listeners, then a coordinator over them
// serving the mobserve API.
func startDurable(o options, rec *span.Recorder) (*hosted, error) {
	cfg := core.Config{Dim: dim, D: pageD, M: capM, Delta: delta, K: durableK,
		Partition: core.UniformPartition(durableShards, durableSpan)}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if o.ckptDir == "" {
		return nil, errors.New("durable mode needs -ckpt-dir")
	}
	h := &hosted{}
	newAlg := func() core.FleetAlgorithm { return multi.NewMtCK() }
	if rec != nil {
		newAlg = wrap.Algs(newAlg, rec, "multi.move", "engine.step", nil)
	}
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cfg, cluster.WorkerOptions{
			NewAlg:        newAlg,
			CheckpointDir: o.ckptDir,
			Span:          durableSpan,
			MaxWindow:     durableWindow,
			CommitEvery:   durableCommit,
		})
		if err != nil {
			stopAll()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopAll()
			return nil, err
		}
		httpSrv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/stream") {
				h.dials.Add(1)
			}
			w.ServeHTTP(rw, r)
		})}
		done := serve(httpSrv, ln)
		stops = append(stops, func() {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "host: worker close:", err)
			}
			shutdown(httpSrv, done)
		})
		addrs = append(addrs, ln.Addr().String())
	}
	copts := cluster.CoordinatorOptions{Workers: addrs, Heartbeat: durableHeartbeat, Window: durableWindow}
	popts := protocol.Options{Window: durableWindow} // no coalescing wait
	svc, err := protocol.NewFromBackend(cfg, func(eopts engine.Options) (protocol.Backend, error) {
		c, err := cluster.NewCoordinator(cfg, copts, eopts)
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return c, nil
		}
		b, err := wrap.Backend(c, rec, "cluster.step", &wrap.Steps{})
		if err != nil {
			return nil, err
		}
		h.coord = b.(*wrap.Coordinator)
		return b, nil
	}, popts)
	if err != nil {
		stopAll()
		return nil, err
	}
	srv := server.NewFromService(cfg, svc)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		stopAll()
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := serve(httpSrv, ln)
	stops = append(stops, func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "host: coordinator close:", err)
		}
		srv.Finish()
		shutdown(httpSrv, done)
	})
	h.addr = ln.Addr().String()
	h.stop = stopAll
	return h, nil
}

// serve runs httpSrv on ln until shutdown; the returned channel closes
// when Serve has returned.
func serve(httpSrv *http.Server, ln net.Listener) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()
	return done
}

func shutdown(httpSrv *http.Server, done <-chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "host: http shutdown:", err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "host:", err)
	os.Exit(1)
}
