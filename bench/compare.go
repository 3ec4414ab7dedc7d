package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// workloadResult is one workload's numbers in a results file: its
// untraced run's end-to-end metrics and its traced run's per-layer ones.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// resultsFile is what -out writes: one entry of Sets per -repeat.
type resultsFile struct {
	Meta    runMeta                     `json:"meta"`
	Seed    int64                       `json:"seed"`
	Seconds float64                     `json:"seconds"`
	Sets    []map[string]workloadResult `json:"sets"`
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload across the sets.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if v, ok := set[workload].EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// verdict labels one (metric, workload) pairing.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// worsening is how much worse `now` is than `base`, as a share of base,
// in the metric's own direction; negative when it improved.
func worsening(d e2eDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// judge compares two sample sets of one metric: worse when the new
// median is worse than the old by more than the metric's bound,
// unresolved when either side's own spread exceeds the bound (the runs
// cannot tell), ok otherwise.
func judge(d e2eDef, old, new []float64) (verdict, float64) {
	w := worsening(d, median(old), median(new))
	switch {
	case spread(old) > d.Bound || spread(new) > d.Bound:
		return verdictUnresolved, w
	case w > d.Bound:
		return verdictWorse, w
	}
	return verdictOK, w
}

// compareFiles prints one row per (metric, workload) present in both
// files and reports whether any is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := old.values(wl.Name, d.Name), cur.values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse := judge(d, a, b)
			anyWorse = anyWorse || v == verdictWorse
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.1f%% %7.0f%%  %s\n",
				wl.Name, d.Name, median(a), median(b), 100*worse, 100*d.Bound, v)
		}
	}
	return anyWorse, nil
}

// agreement prints, for a results file with several sets, each metric's
// median, quartiles and spread, and whether the sets agree within the
// metric's bound; it reports whether all do.
func agreement(w io.Writer, f *resultsFile) bool {
	all := true
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %14s %8s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "agree")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vs := f.values(wl.Name, d.Name)
			if len(vs) == 0 {
				continue
			}
			asc := sorted(vs)
			q1, q2, q3 := quartiles(vs)
			// With the two sets of -repeat 2 the quartiles extrapolate;
			// agreement is judged on the full range instead.
			rng := 0.0
			if q2 != 0 {
				rng = (asc[len(asc)-1] - asc[0]) / q2
			}
			ok := rng <= d.Bound
			all = all && ok
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %14.6g %7.1f%% %7.0f%%  %v\n",
				wl.Name, d.Name, q1, q2, q3, 100*rng, 100*d.Bound, ok)
		}
	}
	return all
}
