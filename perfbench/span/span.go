// Package span is the benchmark's tracing and statistics toolkit: an
// in-memory span recorder that each traced process writes out once at
// exit, the gob file both benchmark processes share, and the
// percentile and interval helpers the report is computed with.
//
// Spans carry wall-clock times (Unix nanoseconds) so that the load
// generator's spans and the host's spans, recorded in different processes
// on the same machine, can be joined on one clock by frame id and step
// index.
package span

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary.
type Span struct {
	// Name is the layer and operation, such as "shard.step".
	Name string
	// Start and End are wall-clock Unix nanoseconds.
	Start, End int64
	// Parent names the layer whose span caused this one; the two are
	// joined by Step (and Frame, when set). Empty for root spans.
	Parent string
	// Frame is the generator-assigned frame id, or -1.
	Frame int64
	// Step is the engine step index that served the frame, or -1.
	Step int64
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Now is the wall clock every span is stamped with.
func Now() int64 { return time.Now().UnixNano() }

// Recorder keeps spans in memory; it is safe for concurrent use. A nil
// *Recorder records nothing, so untraced code paths pass nil.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records one span.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes spans to path with encoding/gob.
func WriteFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := gob.NewEncoder(w).Encode(spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a file written by WriteFile; a truncated or foreign file
// fails to decode.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []Span
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&spans); err != nil {
		return nil, fmt.Errorf("span: %s: %w", path, err)
	}
	return spans, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place. It returns
// NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// Mean is the arithmetic mean, NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Union is the total length of the union of the intervals [start, end),
// clipped to [lo, hi). It is how much of a parent span its (possibly
// concurrent) children cover.
func Union(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e > s {
			cl = append(cl, [2]int64{s, e})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curS, curE int64
	for i, iv := range cl {
		if i == 0 || iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	if len(cl) > 0 {
		total += curE - curS
	}
	return total
}
