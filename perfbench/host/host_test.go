package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/streamclient"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// ingestFlags start cmd/mobserve with the host's fixed ingest wiring.
var ingestFlags = []string{"-dim", strconv.Itoa(dim), "-D", fmt.Sprint(pageD), "-m", fmt.Sprint(capM),
	"-delta", fmt.Sprint(delta), "-k", "1", "-window", "0", "-queue", strconv.Itoa(ingestQueue), "-wire", "binary"}

// TestIngestHostMatchesMobserve: after the same fixed frame sequence, the
// host's /metrics and /state are byte-identical to cmd/mobserve started
// with the host's wiring — untraced, and with the timing wrappers on.
func TestIngestHostMatchesMobserve(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/mobserve and the host")
	}
	dir := t.TempDir()
	mobserve := build(t, dir, "repro/cmd/mobserve")
	host := build(t, dir, "repro/perfbench/host")

	frames := fixedFrames(400)
	want := drive(t, startServer(t, mobserve, ingestFlags...), frames)
	for _, extra := range [][]string{nil, {"-trace", filepath.Join(dir, "h.spans")}} {
		got := drive(t, startServer(t, host, append([]string{"-mode", "ingest"}, extra...)...), frames)
		for _, ep := range []string{"/metrics", "/state"} {
			if got[ep] != want[ep] {
				t.Errorf("host %v %s differs from mobserve:\nhost     %s\nmobserve %s", extra, ep, got[ep], want[ep])
			}
		}
	}
}

func build(t *testing.T, dir, pkg string) string {
	t.Helper()
	out := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, pkg)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
	}
	return out
}

func fixedFrames(n int) [][]wire.Point {
	g := workload.WithRequests(workload.Hotspot{}, 2)
	in := g.Generate(xrand.New(42), core.Config{Dim: 2, D: 2, M: 1, Delta: 0.5}, n)
	out := make([][]wire.Point, n)
	for i, st := range in.Steps {
		for _, p := range st.Requests {
			out[i] = append(out[i], wire.Point(p))
		}
	}
	return out
}

// startServer runs bin with -addr on a free loopback port and waits until
// it serves /metrics; the process is killed at cleanup.
func startServer(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = io.Copy(io.Discard, bufio.NewReader(out)) }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	url := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(url + "/metrics"); err == nil {
			resp.Body.Close()
			return url
		}
	}
	t.Fatalf("%s did not serve within 30s", bin)
	return ""
}

// drive sends the frames in lockstep — each acked before the next, so no
// two can share a step and the outcome does not depend on timing — and
// returns the raw /metrics and /state bodies.
func drive(t *testing.T, url string, frames [][]wire.Point) map[string]string {
	t.Helper()
	c, err := streamclient.Dial(url, "/stream", streamclient.Options{Dim: 2, Wire: wire.WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		p, err := c.Step(f)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if ack.T != i {
			t.Fatalf("frame %d served at step %d", i, ack.T)
		}
		p.Release()
	}
	c.Close()
	out := map[string]string{}
	for _, ep := range []string{"/metrics", "/state"} {
		resp, err := http.Get(url + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[ep] = strings.TrimSpace(string(body))
	}
	return out
}
