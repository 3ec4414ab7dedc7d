// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver regenerates the corresponding artifact
// — the same rows or series the paper reports — from this repository's
// implementations, and renders it as fixed-width text tables.
//
// Index (see DESIGN.md §4): fig2 (training configs), fig3 (pruning
// effects), profile (per-block c(s)/µ(s) at each precision), fig6 (solver runtime), fig7 (DOT cost and memory vs optimum),
// fig8 (cost breakdown vs optimum), fig9 (large-scale per-task admission),
// fig10 (large-scale comparison vs SEM-O-RAN), headline (§V-A aggregate
// numbers), fig11 (emulated end-to-end latency), table1 and table2 (the
// configuration and dataset catalogs).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a rendered experiment artifact.
type Table struct {
	// title identifies the artifact (e.g., "Fig. 6 — solver runtime").
	title string
	// columns are the header labels.
	columns []string
	// rows are the data cells, already formatted.
	rows [][]string
	// notes carry paper-vs-measured commentary.
	notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		_, err := fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.columns); err != nil {
		return err
	}
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (header row first). Notes are not
// included — CSV output targets plotting tools.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SlugTitle derives a filesystem-friendly name from the table title.
func (t *Table) SlugTitle() string {
	var sb strings.Builder
	lastDash := false
	for _, r := range strings.ToLower(t.title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			sb.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && sb.Len() > 0 {
				sb.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.Trim(sb.String(), "-")
}

// Options tune experiment execution.
type Options struct {
	// Quick skips the slowest steps (the exhaustive optimum at T = 5 and
	// long training sweeps) so the whole suite runs in seconds.
	Quick bool
	// workers sets the tensor parallelism for the compute-time
	// characterizations (fig3 profiling and the fig11 emulator). Zero keeps
	// the single-worker measurement the calibrated tables were built from.
	workers int
}

// Experiment is one reproducible artifact generator.
type Experiment struct {
	// ID is the CLI name (e.g., "fig6").
	ID string
	// Name is the descriptive title.
	Name string
	// Run produces the artifact tables.
	Run func(Options) ([]Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Name: "Table I — DNN block configurations", Run: runTable1},
		{ID: "table2", Name: "Table II — base dataset description", Run: runTable2},
		{ID: "fig2", Name: "Fig. 2 — training configurations: accuracy curves and GPU memory", Run: runFig2},
		{ID: "fig2-real", Name: "Fig. 2 (mechanism) — real scaled-down training comparison", Run: runFig2Real},
		{ID: "fig3", Name: "Fig. 3 — pruning: inference compute time and class accuracy", Run: runFig3},
		{ID: "profile", Name: "c(s), µ(s) — per-block compute time and memory at f64/f32/i8", Run: runProfile},
		{ID: "fig6", Name: "Fig. 6 — solver runtime, optimum vs OffloaDNN", Run: runFig6},
		{ID: "fig7", Name: "Fig. 7 — normalized DOT cost and memory vs optimum", Run: runFig7},
		{ID: "fig8", Name: "Fig. 8 — cost breakdown vs optimum (4 panels)", Run: runFig8},
		{ID: "fig9", Name: "Fig. 9 — large-scale per-task admission ratios", Run: runFig9},
		{ID: "fig10", Name: "Fig. 10 — large-scale comparison vs SEM-O-RAN (4 panels)", Run: runFig10},
		{ID: "headline", Name: "§V-A — aggregate DOT/training costs and headline gains", Run: runHeadline},
		{ID: "fig11", Name: "Fig. 11 — emulated end-to-end latency vs targets", Run: runFig11},
		{ID: "ablation", Name: "Ablation — OffloaDNN design choices knocked out one at a time", Run: runAblation},
		{ID: "ext-hetero", Name: "Extension — heterogeneous DNN-family catalog (ResNet + lite)", Run: runHetero},
		{ID: "ext-dynamic", Name: "Extension — dynamic incremental admission (Sec. III-B)", Run: runDynamic},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
