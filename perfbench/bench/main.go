// Command bench is the serving benchmark: one command that drives one of
// three workloads through the real serving stack, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is the JSON result; everything before it is the human report.
//
//	bench -workload replay|ingest|durable -seed N -seconds S -trace 0|1 -host HOSTBIN -work DIR
//
// Workloads (their one-line reasons are also in BENCHMARK.json):
//
//   - replay: closed loop, in process, one caller. A seeded zipf instance
//     (32 requests per step, dimension 2) is submitted step by step to a
//     protocol.Service over a shard.Router with 4 shards × k=4 MtC-k,
//     with the lab's in-process cell options (Clamp, threshold
//     rebalancing, NoCoalesce, Watch consumed in lockstep). multi,
//     shard, engine and protocol do the work; wire, server, streamclient,
//     cluster and fsx do none, so a transport change must leave it flat.
//   - ingest: open loop over one stream connection plus one SSE
//     connection to a host process wired like cmd/mobserve (k=1 MtC, no
//     coalescing wait, no checkpoint). D devices each send one binary
//     frame of 2 seeded hotspot requests on a shared 10 Hz tick, and the
//     device count climbs a fixed ladder. wire, server, streamclient and
//     the protocol queue, coalescer and Watch fan-out do the work; the
//     engine step is trivial. Its batches_per_s is the rate at which the
//     server drains a reference-rung burst into acks, not the offered
//     rate.
//   - durable: closed loop, one stream connection with 16 frames in
//     flight, each of 8 seeded clusters requests, to a coordinator
//     (window 8, no coalescing wait) over two workers hosting 2 shards ×
//     k=2 MtC-k with group commit every 8, ack ring 8, and checkpoints
//     fsynced to disk. cluster fan-out and merge, the coordinator→worker
//     streams, group commit and fsx do the work.
//
// Each untraced run measures several independent trials (fresh set-up
// each); latency percentiles pool the trials' samples and the other
// values are trial medians. The JSON result carries the metrics
// BENCHMARK.json bounds: setup_s, cost_per_request and peak_rss_mb. The
// timing metrics, batches_per_s, ack_p50_ms and ack_p99_ms (with its
// sample count), and ingest's max_rate, are printed above it by name and
// unit, as is fail_frac. On a shared 2-vCPU virtual machine the timings
// of the two-process workloads spread from run to run, as interquartile
// range over median of ten runs, by up to 0.46: more than the largest
// bound BENCHMARK.json may set (0.25), so bounding them would reject
// healthy changes at random. fail_frac is 0 on a healthy run (the
// result's attempted and failed counts carry it).
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) measures the workload once untraced and once with the timing
// wrappers on, and reports the per-layer metrics, each layer's self-time
// share of the mean ack latency, and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/perfbench/span"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the input every workload runs with.
type run struct {
	seed    uint64
	seconds int
	hostBin string
	work    string
}

// result is what one workload reports.
type result struct {
	attempted, failed int64
	e2e, layer        map[string]metric
	notes             []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// unbounded reports an end-to-end metric by name and unit in the human
// report, outside the JSON result: BENCHMARK.json does not bound it.
func (r *result) unbounded(name string, v float64, unit, how string) {
	r.note("%-40s %14.6g %s (%s; reported, not bounded)", name, v, unit, how)
}

func main() {
	var (
		workload = flag.String("workload", "", "replay | ingest | durable")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 15, "timed seconds per measurement")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
		hostBin  = flag.String("host", "", "host binary (ingest, durable)")
		work     = flag.String("work", ".bench_build/run", "scratch directory (must be disk-backed)")
	)
	flag.Parse()
	stopOnSignal()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need >= 1", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: need 0 or 1", *trace))
	}
	if err := prepareWork(*work); err != nil {
		fatal(err)
	}
	r := run{seed: *seed, seconds: *seconds, hostBin: *hostBin, work: *work}
	var (
		res *result
		err error
	)
	switch *workload {
	case "replay":
		res, err = runReplay(r, *trace == 1)
	case "ingest":
		quietGenerator()
		res, err = runIngest(r, *trace == 1)
	case "durable":
		quietGenerator()
		res, err = runDurable(r, *trace == 1)
	default:
		err = fmt.Errorf("unknown -workload %q (replay|ingest|durable)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	metrics := res.e2e
	if *trace == 1 {
		metrics = res.layer
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %v", n, m.Value))
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// quietGenerator keeps the load generator's garbage collector out of the
// measurement when the system under test runs in another process: the
// generator's heap stays far below the limit, so it never collects
// during a run and cannot stall the frames it is due to send.
func quietGenerator() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)
}

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

// prepareWork empties the scratch directory and refuses tmpfs:
// checkpoint fsyncs on tmpfs cost nothing and would measure a different
// system.
func prepareWork(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return err
	}
	if st.Type == tmpfsMagic {
		abs, _ := filepath.Abs(dir)
		return fmt.Errorf("%s is on tmpfs; the benchmark needs a disk-backed directory for checkpoints", abs)
	}
	return nil
}

// durMS converts nanoseconds to milliseconds.
func durMS(ns float64) float64 { return ns / 1e6 }

// latencyStats summarizes ack latencies in nanoseconds: median, p99 and
// the sample count (the p99 needs at least ten samples beyond it).
func latencyStats(ns []float64) (p50, p99 float64, n int, err error) {
	if len(ns) < 1000 {
		return 0, 0, len(ns), fmt.Errorf("only %d latency samples; the p99 needs at least 1000", len(ns))
	}
	s := append([]float64(nil), ns...)
	return span.Quantile(s, 0.5), span.Quantile(s, 0.99), len(s), nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func fatal(err error) {
	killHosts()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
