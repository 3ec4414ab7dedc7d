package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offloadnn/internal/serve"
)

// driftLog counts the heartbeat path's bandwidth-drift re-placement
// kicks (the only "re-placing" lines that name a link rate).
type driftLog struct {
	mu    sync.Mutex
	kicks int
}

func (l *driftLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if !strings.Contains(line, "re-placing") {
		return
	}
	if strings.Contains(line, "link rate drifted") || strings.Contains(line, "Mb/s (placed at") {
		l.mu.Lock()
		l.kicks++
		l.mu.Unlock()
	}
}

func (l *driftLog) reset() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.kicks
	l.kicks = 0
	return n
}

// TestBandwidthProbeSinkSameOnBothDaemons: the coordinator and a member
// sink a probe alike, an empty 200 for the probeBytes an agent sends and
// 400 invalid_request one byte past it.
func TestBandwidthProbeSinkSameOnBothDaemons(t *testing.T) {
	m := startMember(t, "a", fullRes())
	front := httptest.NewServer(startCoordinator(t, Config{}))
	defer front.Close()
	for _, base := range []string{m.ts.URL, front.URL} {
		for _, row := range []struct {
			size, status int
			code         string
		}{
			{probeBytes, http.StatusOK, ""},
			{probeBytes + 1, http.StatusBadRequest, serve.CodeInvalidRequest},
		} {
			resp, err := http.Post(base+"/v1/cluster/bwprobe", "application/octet-stream", bytes.NewReader(make([]byte, row.size)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var envelope struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if row.code != "" {
				json.Unmarshal(body, &envelope)
			}
			if resp.StatusCode != row.status || envelope.Error.Code != row.code || (row.code == "" && len(body) != 0) {
				t.Errorf("%d bytes to %s: %d %q, want %d %q", row.size, base, resp.StatusCode, body, row.status, row.code)
			}
		}
	}
}

// TestBandwidthProbeJitterDoesNotThrash pins the drift gate's smoothing:
// loopback probes routinely swing between 2 and 11 Gb/s beat to beat,
// and before smoothing every beat crossed the 20% gate and re-placed
// the whole cluster. Jitter around a stable mean must settle; a
// sustained collapse of the link must still kick within a few beats.
func TestBandwidthProbeJitterDoesNotThrash(t *testing.T) {
	lg := &driftLog{}
	ma := startMember(t, "a", fullRes())
	mb := startMember(t, "b", fullRes())
	// An hour-long debounce keeps kicked placements from racing the
	// deterministic PlaceNow calls below.
	c := startCoordinator(t, Config{Debounce: time.Hour, Logf: lg.logf})
	joinMember(t, c, "a", ma, 100)
	joinMember(t, c, "b", mb, 100)

	// First probe seeds the matrix; the placement snapshots it as the
	// rate the routing currently prices with.
	c.heartbeat("a", heartbeatRequest{State: "healthy", BandwidthMbps: 100, Peers: map[string]float64{"b": 6500}})
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	lg.reset()

	// 40 beats of 5.5× jitter around the placed rate: the smoothed rate
	// must stay inside the gate and never force a re-placement.
	for i := 0; i < 40; i++ {
		mbps := 2000.0
		if i%2 == 1 {
			mbps = 11000.0
		}
		c.heartbeat("a", heartbeatRequest{State: "healthy", BandwidthMbps: 100, Peers: map[string]float64{"b": mbps}})
	}
	if n := lg.reset(); n != 0 {
		t.Fatalf("stable-mean jitter kicked %d re-placements, want 0", n)
	}

	// A genuine collapse (6.5 Gb/s placed → 500 Mb/s measured) must
	// cross the gate once the smoothed rate catches up.
	for i := 0; i < 10; i++ {
		c.heartbeat("a", heartbeatRequest{State: "healthy", BandwidthMbps: 100, Peers: map[string]float64{"b": 500}})
	}
	if n := lg.reset(); n == 0 {
		t.Fatal("sustained link collapse never kicked a re-placement")
	}
}
