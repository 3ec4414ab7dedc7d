package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, c *Coordinator) string {
	t.Helper()
	w := httptest.NewRecorder()
	c.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	return w.Body.String()
}

// TestClusterMetricsGolden pins the coordinator's full /metrics
// exposition — family names, label sets, HELP, TYPE, values and line
// order — against a scrape recorded before the writer was shared with
// the serving daemon. The fixture: two members on halves of the Table-IV
// pool, three placed tasks, one proxied offload and a measured a→b peer
// link, all on an injected clock, so no value is masked. The published
// summary gains a recorded two-hop split, so the split families are
// reached without a memory-starved member pair.
func TestClusterMetricsGolden(t *testing.T) {
	clock := newFakeClock()
	halves := partitionResources(fullRes(), 2)
	ma := startMember(t, "a", halves[0])
	mb := startMember(t, "b", halves[1])
	c := startCoordinator(t, Config{now: clock.Now, Debounce: time.Hour})
	joinMember(t, c, "a", ma, 12.5)
	joinMember(t, c, "b", mb, 0)
	for i := 1; i <= 3; i++ {
		if err := c.Registry().Register(specTask(t, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PlaceNow(); err != nil {
		t.Fatal(err)
	}
	sum := *c.summary.Load()
	sum.splits = []SplitPath{{taskID: "cam-9", Segments: make([]SplitSegment, 2)}}
	c.summary.Store(&sum)
	clock.Advance(400 * time.Millisecond)
	if !c.heartbeat("a", heartbeatRequest{State: "healthy", Epoch: 2, Peers: map[string]float64{"b": 80}}) {
		t.Fatal("heartbeat from a refused")
	}
	clock.Advance(100 * time.Millisecond)
	front := httptest.NewServer(c)
	defer front.Close()
	resp := postOffload(t, front.URL, "task-1")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	got := scrape(t, c)
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
const hostileID = "edge\t\"7\"\\\n\u200b"

// TestClusterMetricsEscapesLabelValues: a member-chosen node ID with a
// tab, quote, backslash, newline and U+200B — on the node labels and on
// both ends of a peer link — keeps the scrape parseable and round-trips
// through the format's un-escaping.
func TestClusterMetricsEscapesLabelValues(t *testing.T) {
	c := startCoordinator(t, Config{Debounce: time.Hour})
	for _, id := range []string{hostileID, "b"} {
		body, err := json.Marshal(RegisterRequest{Node: id, Addr: "http://127.0.0.1:1",
			Res: ToWireResources(fullRes()), State: "healthy"})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		c.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cluster/nodes", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("register %q: %d %s", id, w.Code, w.Body)
		}
	}
	// A link each way: the hostile ID is the from end of one, the to end
	// of the other.
	c.heartbeat(hostileID, heartbeatRequest{State: "healthy", Peers: map[string]float64{"b": 50}})
	c.heartbeat("b", heartbeatRequest{State: "healthy", Peers: map[string]float64{hostileID: 50}})

	unescape := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	value := regexp.MustCompile(`(node|from|to)="((?:[^"\\\n]|\\[\\"n])*)"`)
	seen := map[string]bool{}
	text := scrape(t, c)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line is not a 0.0.4 sample: %q", line)
		}
		for _, m := range value.FindAllStringSubmatch(line, -1) {
			if unescape.Replace(m[2]) == hostileID {
				seen[m[1]] = true
			}
		}
	}
	for _, label := range []string{"node", "from", "to"} {
		if !seen[label] {
			t.Errorf("no %s label un-escapes to %q:\n%s", label, hostileID, text)
		}
	}
}
