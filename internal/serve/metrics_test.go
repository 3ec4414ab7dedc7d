package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"offloadnn/internal/exec"
)

// goldenBackend is the cost-model backend with a fixed execution-state
// overlay, so one scrape reaches the families only a tensor backend
// fills (precision, queue slack, sheds, batch window).
type goldenBackend struct{ exec.Backend }

func (b goldenBackend) Stats() exec.Stats {
	st := b.Backend.Stats()
	st.LastBatchSize, st.QueueDepth, st.Blocks = 3, 2, 7
	st.ShedLate, st.ShedQueueFull, st.ShedCanceled = 1, 2, 3
	st.DeadlineHits, st.DeadlineMisses = 3, 1
	st.PathPrecisions = map[string]string{"r18/q1": "f32", "r18/q0": "f64"}
	st.QueueSlack = map[string]time.Duration{"r18/q1": 1500 * time.Microsecond, "r18/q0": -time.Millisecond}
	st.LastWindow = 2 * time.Millisecond
	st.QuantFallbacks = 1
	return st
}

// TestMetricsGolden pins the full /metrics exposition — family names,
// label sets, HELP, TYPE, values and line order — against a scrape
// recorded before the writer was shared with the coordinator. The
// fixture: a published epoch on an injected clock, two tasks with
// admits, rejects and executed samples, one pushed head segment and the
// simulated backend, each frame taking 4 ms of the injected clock
// (offloadnn_latency_seconds measures that, not the plan's price).
// Every clock the scrape reads is injected, so no
// value is masked. The one series the fixture cannot reach is
// offloadnn_solve_duration_seconds{tier="approx"} (≥ 512 tasks), pinned
// by TestAutoTierEscalatesBySize.
func TestMetricsGolden(t *testing.T) {
	clock := newFakeClock()
	srv := newTestServer(t, Config{Debounce: time.Hour, now: clock.Now, Node: "n1",
		Backend: &steppingBackend{Backend: goldenBackend{exec.NewSimulated()}, clock: clock, step: 4 * time.Millisecond}})
	registerSmall(t, srv, 2)
	regTasks, regBlocks, _ := srv.Registry().Snapshot()
	path := regTasks[0].Paths[0]
	if _, err := srv.ReplacePlan(regTasks, regBlocks, nil, []SegmentSpec{
		{Task: "h", Path: path.ID, DNN: path.DNN, Blocks: path.Blocks, From: 0, To: 1, Rate: 5,
			Hop: 0, Hops: 2, Next: "http://127.0.0.1:1", NextNode: "n2"},
	}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1500 * time.Millisecond)
	offload := func(task, body string) int {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/offload",
			strings.NewReader(fmt.Sprintf(`{"task":%q%s}`, task, body))))
		return w.Code
	}
	for _, id := range []string{"task-1", "task-2", "h"} {
		// Executed, deadline-free: the simulated backend never reads a
		// wall clock for them. Then probes until the bucket runs dry.
		if code := offload(id, `,"input":[1,2,3],"deadline_ms":-1`); code != http.StatusOK {
			t.Fatalf("offload %s: %d", id, code)
		}
		for i := 0; i < 20 && offload(id, "") == http.StatusOK; i++ {
		}
	}
	clock.Advance(250 * time.Millisecond)

	got := getMetricsBody(t, srv)
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("scrape differs from testdata/metrics.golden:\n%s", got)
	}
}

// labelPair matches one label of a text-format 0.0.4 sample, whose value
// may escape only \\, \" and \n.
const labelPair = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`

// sampleLine is the 0.0.4 sample grammar: name, optional label set,
// value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{` + labelPair + `(?:,` + labelPair + `)*\})? (?:[-+]?[0-9.eE+-]+|[-+]Inf|NaN)$`)

// hostileID carries every character a label value must escape or pass
// through raw: tab, quote, backslash, newline and a zero-width space.
const hostileID = "cam\t\"7\"\\\n\u200b"

// TestMetricsEscapesLabelValues: a client-chosen task ID with a tab,
// quote, backslash, newline and U+200B keeps the scrape parseable and
// round-trips through the format's un-escaping.
func TestMetricsEscapesLabelValues(t *testing.T) {
	srv := newTestServer(t, Config{Debounce: time.Hour})
	spec := smallSpec(t, 1)
	spec.ID = hostileID
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/tasks", bytes.NewReader(body)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	if err := srv.ResolveNow(); err != nil {
		t.Fatal(err)
	}
	if code := offloadRec(srv, hostileID).Code; code != http.StatusOK {
		t.Fatalf("offload: %d", code)
	}

	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	value := regexp.MustCompile(`[{,]task="((?:[^"\\\n]|\\[\\"n])*)"`)
	found := false
	text := getMetricsBody(t, srv)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line is not a 0.0.4 sample: %q", line)
		}
		if m := value.FindStringSubmatch(line); m != nil && unescape.Replace(m[1]) == hostileID {
			found = true
		}
	}
	if !found {
		t.Errorf("no task label un-escapes to %q:\n%s", hostileID, text)
	}
}
