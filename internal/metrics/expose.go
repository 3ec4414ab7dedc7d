package metrics

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Exposition writes the Prometheus text format, version 0.0.4, that both
// daemons serve on /metrics. It holds no metric state: callers walk their
// own counters and hand each value over. Write errors are dropped: one
// means the scraper hung up, and nothing else reads the body.
type Exposition struct{ w io.Writer }

// Family is one metric family opened on an Exposition.
type Family struct {
	w    io.Writer
	name string
}

// NewExposition sets the text-format Content-Type on w and returns a
// writer over its body.
func NewExposition(w http.ResponseWriter) Exposition {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return Exposition{w}
}

// Gauge, Counter and Summary write a family's # HELP and # TYPE lines.
func (e Exposition) Gauge(name, help string) Family   { return e.family(name, "gauge", help) }
func (e Exposition) Counter(name, help string) Family { return e.family(name, "counter", help) }
func (e Exposition) Summary(name, help string) Family { return e.family(name, "summary", help) }

func (e Exposition) family(name, typ, help string) Family {
	io.WriteString(e.w, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n")
	return Family{e.w, name}
}

// labelEscaper applies the only three escapes 0.0.4 allows in a label
// value; every other character, tabs and non-ASCII included, stays raw.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one line; labels alternate name and value.
func (f Family) sample(value string, labels []string) {
	line, sep := f.name, "{"
	for i := 0; i+1 < len(labels); i += 2 {
		line += sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`
		sep = ","
	}
	if sep == "," {
		line += "}"
	}
	io.WriteString(f.w, line+" "+value+"\n")
}

// Int writes an integer sample.
func (f Family) Int(v int64, labels ...string) { f.sample(strconv.FormatInt(v, 10), labels) }

// Float writes a float sample in its shortest form, as %g prints it.
func (f Family) Float(v float64, labels ...string) {
	f.sample(strconv.FormatFloat(v, 'g', -1, 64), labels)
}

// Bool writes a 0/1 sample.
func (f Family) Bool(v bool, labels ...string) {
	value := "0"
	if v {
		value = "1"
	}
	f.sample(value, labels)
}

// Quantiles writes win's p50, p95 and p99 as quantile-labelled samples
// after the given labels; an empty window writes nothing.
func (f Family) Quantiles(win *Window, labels ...string) {
	qs, _ := win.quantiles(50, 95, 99)
	for i, q := range qs {
		f.Float(q, append(labels[:len(labels):len(labels)], "quantile", []string{"0.5", "0.95", "0.99"}[i])...)
	}
}

// SortedKeys returns m's keys in order, for a deterministic series order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
