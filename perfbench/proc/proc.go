// Package proc reads the process counters the benchmark reports for the
// process under test: runtime/metrics allocation and GC counters, CPU
// time, and peak resident set size. It also defines the stats document
// the host process writes at exit.
package proc

import (
	"errors"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Mark is one sample of a process's runtime counters.
type Mark struct {
	Wall       int64   `json:"wall_ns"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	CPUSeconds float64 `json:"cpu_s"`
}

// TakeMark samples the calling process's counters now.
func TakeMark() Mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	return Mark{Wall: time.Now().UnixNano(), AllocBytes: s[0].Value.Uint64(), GCCycles: s[1].Value.Uint64(), CPUSeconds: cpu}
}

// PeakRSSKB reads a process's peak resident set (VmHWM) in KiB; pid is a
// process id or "self".
func PeakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("proc: no VmHWM in /proc/" + pid + "/status")
}

// Stats is what the host process reports at exit.
type Stats struct {
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Marks are the counters sampled at each mark signal (the timed
	// window's start and end).
	Marks []Mark `json:"marks"`
	// StreamDials counts the stream connections the shard workers
	// accepted: one per shard unless the coordinator reconnected or
	// failed over.
	StreamDials int64 `json:"stream_dials"`
	// Failovers and InflightMean come from the coordinator wrapper, so
	// they are only set in traced durable runs.
	Failovers    int64   `json:"failovers"`
	InflightMean float64 `json:"inflight_mean"`
}
