package streamclient

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestRetiredThrottleFrameIsUnexpected: the stream grammar no longer has
// a throttle frame. A server that answers a step with one — the NDJSON
// "throttle" type or the unassigned binary tag 0x05 — is a protocol
// violation: the client kills the connection and the step's Wait fails,
// on both encodings.
func TestRetiredThrottleFrameIsUnexpected(t *testing.T) {
	for _, enc := range []string{wire.WireNDJSON, wire.WireBinary} {
		t.Run(enc, func(t *testing.T) {
			addr := throttlingServer(t, enc == wire.WireBinary)
			c, err := Dial(addr, "/stream", Options{Dim: 2, Wire: enc})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Wire() != enc {
				t.Fatalf("negotiated %s, want %s", c.Wire(), enc)
			}
			p, err := c.Step([]wire.Point{{1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Wait(); err == nil || !strings.Contains(err.Error(), "unexpected") {
				t.Fatalf("Wait after a throttle frame = %v, want an unexpected-frame error", err)
			}
			select {
			case <-c.Done():
			case <-time.After(2 * time.Second):
				t.Fatal("connection still open after an unexpected frame")
			}
		})
	}
}

// throttlingServer is a hand-rolled stream endpoint that welcomes one
// client (granting binary when asked and binary is set) and answers its
// first step frame with a frame of the retired throttle shape.
func throttlingServer(t *testing.T, binary bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for { // consume the upgrade request head
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if line == "\r\n" {
				break
			}
		}
		fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\n\r\n")
		if _, err := br.ReadString('\n'); err != nil { // the hello
			return
		}
		welcome := wire.WelcomeFrame{V: wire.V1, Type: wire.FrameWelcome, Algorithm: "throttler", Dim: 2}
		if binary {
			welcome.Wire = wire.WireBinary
		}
		data, _ := json.Marshal(welcome)
		conn.Write(append(data, '\n'))
		if binary {
			var buf []byte
			if _, _, err := wire.ReadBinaryFrame(br, &buf, wire.DefaultMaxFrame); err != nil {
				return
			}
			// tag 0x05, payload v=1, id=1 (zigzag), retry_after_ms=5.
			conn.Write([]byte{0x05, 3, 1, 2, 5})
		} else {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			conn.Write([]byte(`{"v":1,"type":"throttle","id":1,"retry_after_ms":5}` + "\n"))
		}
		// Hold the connection open: only the client may end it.
		_, _ = br.ReadByte()
	}()
	return ln.Addr().String()
}

// TestHeartbeatTick pins the liveness verdict: only a ping that has
// waited longer than the timeout with no frame arriving condemns the
// peer, and a late tick (this process was paused) gives no verdict and
// starts a fresh probe.
func TestHeartbeatTick(t *testing.T) {
	const every, timeout = 10 * time.Millisecond, 30 * time.Millisecond
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	none := time.Time{}
	cases := []struct {
		name                 string
		now, prev, probe, rx time.Time
		wantProbe            time.Time
		wantDead             bool
	}{
		{"no ping outstanding: start one", at(100), at(90), none, at(0), at(100), false},
		{"ping answered: start a new one", at(100), at(90), at(60), at(70), at(100), false},
		{"frame at the ping's send time answers it", at(100), at(90), at(60), at(60), at(100), false},
		{"unanswered within the timeout", at(100), at(90), at(80), at(0), at(80), false},
		{"unanswered exactly at the timeout", at(100), at(90), at(70), at(0), at(70), false},
		{"unanswered past the timeout", at(100), at(90), at(69), at(0), at(69), true},
		{"long silence, but no ping outstanding", at(1000), at(990), none, at(0), at(1000), false},
		{"tick one period late is still on time", at(100), at(80), at(60), at(0), at(60), true},
		{"tick more than one period late: re-probe", at(200), at(179), at(60), at(0), at(200), false},
		{"paused for 10x the timeout: re-probe", at(400), at(90), at(60), at(0), at(400), false},
	}
	for _, tc := range cases {
		probe, dead := heartbeatTick(tc.now, tc.prev, tc.probe, tc.rx, every, timeout)
		if !probe.Equal(tc.wantProbe) || dead != tc.wantDead {
			t.Errorf("%s: heartbeatTick = (%v, %v), want (%v, %v)", tc.name,
				probe.Sub(t0), dead, tc.wantProbe.Sub(t0), tc.wantDead)
		}
	}
}
