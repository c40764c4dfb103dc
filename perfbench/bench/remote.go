package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"

	"repro/perfbench/proc"
)

// hostProc is one running host process (the system under test).
type hostProc struct {
	cmd       *exec.Cmd
	url       string
	statsPath string
	tracePath string
	waitErr   chan error
}

// live tracks the running hosts so that every exit path stops them.
var live = struct {
	sync.Mutex
	hosts map[*hostProc]bool
}{hosts: map[*hostProc]bool{}}

// killHosts stops every host still running and waits for each.
func killHosts() {
	live.Lock()
	hosts := live.hosts
	live.hosts = map[*hostProc]bool{}
	live.Unlock()
	for h := range hosts {
		_ = h.cmd.Process.Kill() // already exited is fine
		<-h.waitErr
	}
}

// stopOnSignal makes an interrupted benchmark stop its hosts first.
func stopOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigs
		killHosts()
		os.Exit(2)
	}()
}

// hostReadyTimeout bounds a host's start-up.
const hostReadyTimeout = 60 * time.Second

// startHost launches the host binary with args and waits for its ready
// line. tag names its stats and trace files in dir.
func startHost(bin, dir, tag string, traced bool, args ...string) (*hostProc, error) {
	if bin == "" {
		return nil, errors.New("this workload needs -host")
	}
	h := &hostProc{statsPath: filepath.Join(dir, tag+".stats.json"), waitErr: make(chan error, 1)}
	args = append(args, "-stats", h.statsPath)
	if traced {
		h.tracePath = filepath.Join(dir, tag+".spans")
		args = append(args, "-trace", h.tracePath)
	}
	h.cmd = exec.Command(bin, args...)
	h.cmd.Stderr = os.Stderr
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.hosts[h] = true
	live.Unlock()
	ready := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		ready <- line
		_, _ = io.Copy(io.Discard, br) // keep the pipe drained until exit
		h.waitErr <- h.cmd.Wait()
	}()
	select {
	case line := <-ready:
		url, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
		if !ok {
			h.kill()
			return nil, fmt.Errorf("host %s did not start (said %q)", tag, line)
		}
		h.url = url
		return h, nil
	case <-time.After(hostReadyTimeout):
		h.kill()
		return nil, fmt.Errorf("host %s not ready after %v", tag, hostReadyTimeout)
	}
}

func (h *hostProc) forget() {
	live.Lock()
	delete(live.hosts, h)
	live.Unlock()
}

// kill stops the host without waiting for a clean shutdown.
func (h *hostProc) kill() {
	h.forget()
	_ = h.cmd.Process.Kill() // already exited is fine
	<-h.waitErr
}

// mark asks the host to sample its runtime counters (the timed window's
// start or end).
func (h *hostProc) mark(start bool) error {
	sig := syscall.SIGUSR2
	if start {
		sig = syscall.SIGUSR1
	}
	return h.cmd.Process.Signal(sig)
}

// hostStopTimeout bounds a host's clean shutdown.
const hostStopTimeout = 60 * time.Second

// stop shuts the host down cleanly and returns its exit stats.
func (h *hostProc) stop() (proc.Stats, error) {
	var st proc.Stats
	if err := h.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		h.kill()
		return st, err
	}
	select {
	case err := <-h.waitErr:
		h.forget()
		if err != nil {
			return st, fmt.Errorf("host exit: %w", err)
		}
	case <-time.After(hostStopTimeout):
		h.kill()
		return st, fmt.Errorf("host did not stop within %v", hostStopTimeout)
	}
	data, err := os.ReadFile(h.statsPath)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// getJSON fetches one of the host's JSON endpoints.
func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(url)
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
	return wire.UnmarshalStrict(data, v)
}
