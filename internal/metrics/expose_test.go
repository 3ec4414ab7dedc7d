package metrics

import (
	"math"
	"net/http/httptest"
	"testing"
)

func TestExposition(t *testing.T) {
	w := httptest.NewRecorder()
	e := NewExposition(w)
	f := e.Counter("req_total", "Requests.")
	f.Int(1234567, "task", "a\tb\"c\\d\ne\u200b")
	f.Int(-2, "task", "x", "hop", "1")
	e.Gauge("ratio", "A float.").Float(1e6)
	g := e.Gauge("flags", "Bools and specials.")
	g.Bool(true)
	g.Bool(false, "k", "v")
	g.Float(math.Inf(1))
	g.Float(1.0 / 3)
	win := NewWindow(8)
	e.Summary("empty_seconds", "No samples.").Quantiles(win, "task", "t")
	for _, x := range []float64{3, 1, 2} {
		win.Add(x)
	}
	e.Summary("lat_seconds", "Quantiles.").Quantiles(win, "task", "t")

	want := "# HELP req_total Requests.\n# TYPE req_total counter\n" +
		"req_total{task=\"a\tb\\\"c\\\\d\\ne\u200b\"} 1234567\n" +
		"req_total{task=\"x\",hop=\"1\"} -2\n" +
		"# HELP ratio A float.\n# TYPE ratio gauge\nratio 1e+06\n" +
		"# HELP flags Bools and specials.\n# TYPE flags gauge\n" +
		"flags 1\nflags{k=\"v\"} 0\nflags +Inf\nflags 0.3333333333333333\n" +
		"# HELP empty_seconds No samples.\n# TYPE empty_seconds summary\n" +
		"# HELP lat_seconds Quantiles.\n# TYPE lat_seconds summary\n" +
		"lat_seconds{task=\"t\",quantile=\"0.5\"} 2\n" +
		"lat_seconds{task=\"t\",quantile=\"0.95\"} 3\n" +
		"lat_seconds{task=\"t\",quantile=\"0.99\"} 3\n"
	if got := w.Body.String(); got != want {
		t.Fatalf("exposition\n%q\nwant\n%q", got, want)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
