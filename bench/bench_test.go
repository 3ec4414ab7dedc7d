package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func seededInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	return &inputs{
		Frames: genFrames(rng, 3),
		Phases: genUnit(rng, 3),
		Wobble: genUnit(rng, pickLen),
		Picks:  genPicks(rng),
		Churn:  genChurn(rng, 20, 500, churnMinLive),
		Jitter: genJitter(rng, 64),
	}
}

// The same seed must yield a byte-identical schedule, and a different
// seed a different one.
func TestInputsDeterministic(t *testing.T) {
	a, b := seededInputs(1).digest(), seededInputs(1).digest()
	if a != b {
		t.Fatalf("seed 1 digests differ: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("digest %q is not a SHA-256", a)
	}
	if c := seededInputs(heldOutSeed).digest(); c == a {
		t.Fatalf("seeds 1 and %d share digest %s", heldOutSeed, a)
	}
}

// Churn must stay applicable: never deregister an absent task, register a
// live one, or drop below the live floor.
func TestChurnEventsApplicable(t *testing.T) {
	const tasks = 20
	live := make([]bool, tasks)
	for i := range live {
		live[i] = true
	}
	n := tasks
	for i, e := range genChurn(rand.New(rand.NewSource(3)), tasks, 5000, churnMinLive) {
		switch e.Kind {
		case churnRegister:
			if live[e.Task] {
				t.Fatalf("event %d registers live task %d", i, e.Task)
			}
			live[e.Task] = true
			n++
		case churnDeregister:
			if !live[e.Task] {
				t.Fatalf("event %d deregisters absent task %d", i, e.Task)
			}
			live[e.Task] = false
			n--
		case churnRate:
			if !live[e.Task] || e.Factor < 0.5 || e.Factor >= 1.5 {
				t.Fatalf("event %d: rate ×%v on task %d (live %v)", i, e.Factor, e.Task, live[e.Task])
			}
		}
		if n < churnMinLive {
			t.Fatalf("event %d leaves %d live tasks", i, n)
		}
	}
}

func TestTailReportsOnlySupportedPercentiles(t *testing.T) {
	asc := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n     int
		want  float64
		q, v  float64
		label string
	}{
		{1000, 0.99, 0.99, 990, "p99 of 1000 has 10 beyond"},
		{999, 0.99, 0.95, 950, "p99 of 999 has 9 beyond: falls to p95"},
		{200, 0.95, 0.95, 190, "p95 of 200 has 10 beyond"},
		{199, 0.95, 0.90, 180, "p95 of 199 falls to p90"},
		{7, 0.95, 0.5, 4, "seven samples support only the median"},
	} {
		v, q := tail(asc(c.n), c.want)
		if q != c.q || v != c.v {
			t.Errorf("%s: got p%g = %v, want p%g = %v", c.label, q*100, v, c.q*100, c.v)
		}
	}
	if v := quantile(nil, 0.5); v != 0 {
		t.Errorf("quantile of no samples = %v, want 0", v)
	}
}

// quartiles must match Python's statistics.quantiles(values, n=4), which
// the benchmark contract's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Fatalf("quartiles of two = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestJudge(t *testing.T) {
	lower := e2eDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := e2eDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	for _, c := range []struct {
		label    string
		d        e2eDef
		old, new []float64
		want     verdict
	}{
		{"slower within bound", lower, steady(10), steady(10.9), verdictOK},
		{"slower beyond bound", lower, steady(10), steady(11.2), verdictWorse},
		{"faster", lower, steady(10), steady(5), verdictOK},
		{"throughput down beyond bound", higher, steady(100), steady(88), verdictWorse},
		{"throughput up", higher, steady(100), steady(130), verdictOK},
		{"noisy side cannot tell", lower, []float64{8, 10, 12, 14}, steady(20), verdictUnresolved},
		{"single sets compare directly", lower, []float64{10}, []float64{12}, verdictWorse},
	} {
		if got, _ := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.label, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{"sets":[{"paper-large":{"end_to_end":{"op_p50_ms":4.0,"ops_per_s":104}}}]}`)
	cur := write("new.json", `{"sets":[{"paper-large":{"end_to_end":{"op_p50_ms":6.0,"ops_per_s":104}}}]}`)
	var out bytes.Buffer
	worse, err := compareFiles(&out, old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") {
		t.Fatalf("50%% slower p50 not reported worse:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "paper-large"); n != 2 {
		t.Fatalf("want one row per metric present in both files, got %d:\n%s", n, out.String())
	}
	if _, err := compareFiles(&out, old, write("empty.json", `{"sets":[]}`)); err == nil {
		t.Fatal("a file without result sets must be refused")
	}
}

// BENCHMARK.json at the repository root must be what metrics.go renders,
// and must stay inside the limits the benchmark contract sets.
func TestManifestMatchesCheckedInFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run . -write-manifest ../BENCHMARK.json`")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(s string) {
		if seen[s] || s == "" || len(s) > 64 {
			t.Errorf("name %q is empty, long or used twice", s)
		}
		seen[s] = true
	}
	setup := false
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == e2eDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// The best-decile slice stands a tenth of the way in from the good end,
// whichever end that is.
func TestBestDecile(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64((i*7)%30 + 1) // 1..30 in some order
	}
	if lo, hi := bestLow(xs), bestHigh(xs); lo != 3 || hi != 28 {
		t.Errorf("best decile of 1..30 = %v (low) and %v (high), want 3 and 28", lo, hi)
	}
	if lo, hi := bestLow([]float64{5}), bestHigh([]float64{5}); lo != 5 || hi != 5 {
		t.Errorf("best decile of one slice = %v and %v, want 5 and 5", lo, hi)
	}
}

// A slice of a strict pass whose generator ran late is left out of the
// latencies, the rate and the lateness, but its requests still count as
// attempted, and as failed or wrong when they are. A slow slice of a pass
// that is not strict is kept, and the best-decile slice still reports
// the undisturbed figure.
func TestSummarizeSlices(t *testing.T) {
	const perSlice, n = 200, 12
	const sliceLen = time.Duration(sliceSeconds * float64(time.Second))
	res := loopResult{window: n * sliceLen, elapsed: n * sliceLen}
	for sl := 0; sl < n; sl++ {
		for i := 0; i < perSlice; i++ {
			s := sample{status: http.StatusOK, latency: 4 * time.Millisecond, due: time.Duration(sl)*sliceLen + time.Duration(i)*time.Millisecond}
			if sl == 2 { // the host stalled: late dispatch, slow answers, one of them wrong, every other one lost
				s.late, s.latency, s.wrong = 50*time.Millisecond, 80*time.Millisecond, i == 0
				if i%2 == 1 {
					s.status = http.StatusGatewayTimeout
				}
			}
			res.samples = append(res.samples, s)
		}
	}
	noBound := func(int) time.Duration { return 0 }
	allowed := []int{http.StatusOK, http.StatusGatewayTimeout}
	p := summarize(res, noBound, allowed, true)
	if p.slices != n || p.lateSlices != 1 || p.sent != (n-1)*perSlice || p.attempted != n*perSlice || p.wrong != 1 || p.failed != 0 {
		t.Fatalf("slices %d late %d sent %d attempted %d wrong %d failed %d", p.slices, p.lateSlices, p.sent, p.attempted, p.wrong, p.failed)
	}
	if p.tailQ != 0.95 || p.opTail() != 4 || p.latencies[len(p.latencies)-1] != 4 || p.latenessP99 != 0 {
		t.Errorf("stalled slice leaked into the numbers: p%g %v ms, lateness p99 %v ms", p.tailQ*100, p.opTail(), p.latenessP99)
	}
	if got := p.opRate(); got != perSlice/sliceSeconds {
		t.Errorf("rate over the kept slices = %v/s, want %v/s", got, perSlice/sliceSeconds)
	}
	q := summarize(res, noBound, allowed, false)
	if q.lateSlices != 0 || q.sent != n*perSlice || q.shed != perSlice/2 {
		t.Fatalf("a pass that is not strict keeps every slice: late %d sent %d shed %d", q.lateSlices, q.sent, q.shed)
	}
	if q.opP50() != 4 || q.opTail() != 4 || q.opRate() != perSlice/sliceSeconds {
		t.Errorf("the best-decile slice follows the slow slice: p50 %v p95 %v ms, %v ok/s", q.opP50(), q.opTail(), q.opRate())
	}
	if whole := quantile(q.latencies, 0.99); whole != 80 {
		t.Errorf("whole-pass p99 = %v ms: the slow slice should show in it", whole)
	}
}
