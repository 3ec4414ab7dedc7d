package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"offloadnn/internal/tensor"
	"offloadnn/internal/workload"
)

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			var buf bytes.Buffer
			for i := range tables {
				if err := tables[i].Render(&buf); err != nil {
					t.Fatal(err)
				}
				if len(tables[i].rows) == 0 {
					t.Fatalf("%s table %q has no rows", e.ID, tables[i].title)
				}
			}
			if buf.Len() == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig6" {
		t.Fatalf("got %q", e.ID)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := Table{
		title:   "demo",
		columns: []string{"a", "long-header"},
		rows:    [][]string{{"xxxxxx", "1"}},
		notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "long-header", "xxxxxx", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6RuntimeGrowth(t *testing.T) {
	runs, err := runSmallScale(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Branch count must grow ~exponentially with T.
	for i := 1; i < len(runs); i++ {
		if runs[i].branches <= runs[i-1].branches {
			t.Fatalf("branches did not grow: T=%d has %d, T=%d has %d",
				runs[i-1].tasks, runs[i-1].branches, runs[i].tasks, runs[i].branches)
		}
	}
	// The heuristic is far faster than the optimum once the tree is
	// non-trivial.
	last := runs[len(runs)-1]
	if last.optimal.Runtime < 10*last.heuristic.Runtime {
		t.Fatalf("optimum %v not >=10x heuristic %v at T=4", last.optimal.Runtime, last.heuristic.Runtime)
	}
}

func TestFig7HeuristicNearOptimal(t *testing.T) {
	runs, err := runSmallScale(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.optimal == nil {
			continue
		}
		if r.heuristic.Cost < r.optimal.Cost-1e-9 {
			t.Fatalf("T=%d: heuristic %v beat the optimum %v", r.tasks, r.heuristic.Cost, r.optimal.Cost)
		}
		gap := (r.heuristic.Cost - r.optimal.Cost) / r.optimal.Cost
		if gap > 0.15 {
			t.Fatalf("T=%d: heuristic gap %.1f%% too large", r.tasks, gap*100)
		}
	}
}

func TestFig8BreakdownShapes(t *testing.T) {
	runs, err := runSmallScale(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		h, o := r.heuristic.Breakdown, r.optimal.Breakdown
		// Paper: same weighted admission and RBs as the optimum.
		if h.WeightedAdmission < o.WeightedAdmission-1e-6 {
			t.Fatalf("T=%d: admission %v below optimum %v", r.tasks, h.WeightedAdmission, o.WeightedAdmission)
		}
		// Paper: heuristic training cost ≥ optimum; inference compute ≤.
		if h.TrainSeconds < o.TrainSeconds-1e-6 {
			t.Fatalf("T=%d: heuristic train %v below optimum %v (unexpected)", r.tasks, h.TrainSeconds, o.TrainSeconds)
		}
		if h.ComputeUsage > o.ComputeUsage+1e-9 {
			t.Fatalf("T=%d: heuristic inference compute %v above optimum %v", r.tasks, h.ComputeUsage, o.ComputeUsage)
		}
	}
}

func TestFig9AdmissionShapes(t *testing.T) {
	runs, err := runLargeScale()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d load levels, want 3", len(runs))
	}
	low, _, high := runs[0], runs[1], runs[2]
	// Low load: every task fully admitted by OffloaDNN.
	for i, a := range low.offloaDNN.Assignments {
		if a.Z < 0.999 {
			t.Fatalf("low load: task %d admitted z=%v, want 1", i+1, a.Z)
		}
	}
	// High load: admission is non-increasing in task index (priority
	// order), with a fractional band.
	prev := 2.0
	fractional := 0
	for i, a := range high.offloaDNN.Assignments {
		if a.Z > prev+1e-9 {
			t.Fatalf("high load: admission not monotone at task %d (%v after %v)", i+1, a.Z, prev)
		}
		if a.Z > 0.001 && a.Z < 0.999 {
			fractional++
		}
		prev = a.Z
	}
	if fractional == 0 {
		t.Fatal("high load: no diminishing-ratio band (paper shows one)")
	}
	// SEM-O-RAN is binary everywhere.
	for _, r := range runs {
		for _, d := range r.semORAN.Decisions {
			_ = d.Admitted // nothing fractional exists by type
		}
		if r.semORAN.AdmittedTasks >= low.offloaDNN.Breakdown.AdmittedTasks &&
			r.load == workload.LoadLow {
			t.Fatalf("SEM-O-RAN admitted %d at low load, not below OffloaDNN's %d",
				r.semORAN.AdmittedTasks, low.offloaDNN.Breakdown.AdmittedTasks)
		}
	}
}

func TestHeadlineGainsInPaperBand(t *testing.T) {
	runs, err := runLargeScale()
	if err != nil {
		t.Fatal(err)
	}
	var admO, admS, memO, memS, compO, compS float64
	for _, r := range runs {
		admO += float64(r.offloaDNN.Breakdown.AdmittedTasks)
		admS += float64(r.semORAN.AdmittedTasks)
		memO += r.offloaDNN.Breakdown.MemoryGB
		memS += r.semORAN.MemoryGB
		compO += r.offloaDNN.Breakdown.ComputeUsage
		compS += r.semORAN.ComputeUsage
	}
	admGain := (admO/admS - 1) * 100
	memSave := (1 - memO/memS) * 100
	compSave := (1 - compO/compS) * 100
	// Paper: +26.9% admissions, −82.5% memory, −77.3% compute. Accept a
	// generous band around each (the substrate differs).
	if admGain < 10 || admGain > 60 {
		t.Fatalf("admission gain %.1f%% outside [10,60] band (paper 26.9%%)", admGain)
	}
	if memSave < 70 || memSave > 95 {
		t.Fatalf("memory savings %.1f%% outside [70,95] band (paper 82.5%%)", memSave)
	}
	if compSave < 55 || compSave > 90 {
		t.Fatalf("compute savings %.1f%% outside [55,90] band (paper 77.3%%)", compSave)
	}
}

func TestHeadlineCostOrdering(t *testing.T) {
	runs, err := runLargeScale()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: DOT cost rises with the load; training usage is equal at
	// low/medium and lower at high (fewer active blocks).
	if !(runs[0].offloaDNN.Cost < runs[1].offloaDNN.Cost &&
		runs[1].offloaDNN.Cost < runs[2].offloaDNN.Cost) {
		t.Fatalf("DOT cost not increasing with load: %v %v %v",
			runs[0].offloaDNN.Cost, runs[1].offloaDNN.Cost, runs[2].offloaDNN.Cost)
	}
	if runs[2].offloaDNN.Breakdown.TrainSeconds >= runs[0].offloaDNN.Breakdown.TrainSeconds {
		t.Fatalf("training usage at high load (%v) not below low load (%v)",
			runs[2].offloaDNN.Breakdown.TrainSeconds, runs[0].offloaDNN.Breakdown.TrainSeconds)
	}
}

func TestFig11TracesUnderTargets(t *testing.T) {
	tables, err := runFig11(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The summary table's violations column must be all zeros.
	summary := tables[1]
	for _, row := range summary.rows {
		v, err := strconv.Atoi(row[len(row)-1])
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("task %s reports %d latency violations", row[0], v)
		}
		samples, err := strconv.Atoi(row[len(row)-2])
		if err != nil {
			t.Fatal(err)
		}
		if samples < 50 {
			t.Fatalf("task %s served only %d samples", row[0], samples)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tab := Table{
		title:   "Fig. X — demo, with (punctuation)!",
		columns: []string{"a", "b"},
		rows:    [][]string{{"1", "two, three"}},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b\n") {
		t.Fatalf("missing header: %q", got)
	}
	if !strings.Contains(got, `"two, three"`) {
		t.Fatalf("comma cell not quoted: %q", got)
	}
	if slug := tab.SlugTitle(); slug != "fig-x-demo-with-punctuation" {
		t.Fatalf("slug = %q", slug)
	}
}

func TestAblationShapes(t *testing.T) {
	tables, err := runAblation(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d ablation tables, want 4", len(tables))
	}
	// Ordering ablation: the compute row (first) must have the lowest
	// inference usage column (index 2).
	ordering := tables[0]
	base, err := strconv.ParseFloat(ordering.rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ordering.rows[1:] {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if base > v+1e-9 {
			t.Fatalf("compute ordering (%v) not minimal vs %s (%v)", base, row[0], v)
		}
	}
	// Sharing ablation: private blocks use more memory.
	sharing := tables[2]
	sharedMem, _ := strconv.ParseFloat(sharing.rows[0][1], 64)
	privateMem, _ := strconv.ParseFloat(sharing.rows[1][1], 64)
	if privateMem <= sharedMem {
		t.Fatalf("private memory %v not above shared %v", privateMem, sharedMem)
	}
	// Quality ablation: the ladder saves RBs.
	quality := tables[3]
	singleRB, _ := strconv.ParseFloat(quality.rows[0][1], 64)
	ladderRB, _ := strconv.ParseFloat(quality.rows[1][1], 64)
	if ladderRB >= singleRB {
		t.Fatalf("quality ladder RBs %v not below single-β %v", ladderRB, singleRB)
	}
}

func TestDynamicWavesReuseBlocks(t *testing.T) {
	tables, err := runDynamic(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].rows
	if len(rows) != 3 {
		t.Fatalf("%d waves, want 3", len(rows))
	}
	// Later waves must reuse at least one earlier-deployed block for free.
	for _, row := range rows[1:] {
		reused, err := strconv.Atoi(row[len(row)-1])
		if err != nil {
			t.Fatal(err)
		}
		if reused == 0 {
			t.Fatalf("wave %s reused no deployed blocks", row[0])
		}
	}
}

// TestProfileExperimentCoversGrid pins the profile grid: both
// architectures, all three precisions, one row per block plus TOTAL, a
// params column summing to the model's count, and an i8 memory column
// equal to the footprint of the model instantiated at i8.
func TestProfileExperimentCoversGrid(t *testing.T) {
	tables, err := runProfile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(profileArchs) {
		t.Fatalf("%d tables, want one per architecture (%d)", len(tables), len(profileArchs))
	}
	for ti, arch := range profileArchs {
		tab := tables[ti]
		col := map[string]int{}
		for i, c := range tab.columns {
			col[c] = i
		}
		for _, prec := range []string{"f64", "f32", "i8"} {
			if _, ok := col["c(s) "+prec]; !ok {
				t.Fatalf("%s: no c(s) column for %s in %v", arch.name, prec, tab.columns)
			}
			if _, ok := col["µ(s) "+prec]; !ok {
				t.Fatalf("%s: no µ(s) column for %s in %v", arch.name, prec, tab.columns)
			}
		}
		m := arch.build()
		if len(tab.rows) != len(m.Blocks)+1 {
			t.Fatalf("%s: %d rows, want %d blocks + TOTAL", arch.name, len(tab.rows), len(m.Blocks))
		}
		params := 0
		for i, b := range m.Blocks {
			row := tab.rows[i]
			if row[col["block"]] != b.ID {
				t.Fatalf("%s: row %d is %q, want block %q", arch.name, i, row[col["block"]], b.ID)
			}
			n, err := strconv.Atoi(row[col["params"]])
			if err != nil {
				t.Fatal(err)
			}
			params += n
		}
		total := tab.rows[len(m.Blocks)]
		if total[col["block"]] != "TOTAL" || total[col["params"]] != strconv.Itoa(m.ParamCount()) {
			t.Fatalf("%s: TOTAL row %v, want params %d", arch.name, total, m.ParamCount())
		}
		if params != m.ParamCount() {
			t.Fatalf("%s: params column sums to %d, want %d", arch.name, params, m.ParamCount())
		}

		if err := m.SetPrecision(tensor.I8); err != nil {
			t.Fatal(err)
		}
		var modelBytes int64
		for i, b := range m.Blocks {
			modelBytes += b.MemoryBytes()
			if got, want := tab.rows[i][col["µ(s) i8"]], f1(float64(b.MemoryBytes())/1024); got != want {
				t.Fatalf("%s: %s i8 memory %s KB, want %s", arch.name, b.ID, got, want)
			}
		}
		if got, want := total[col["µ(s) i8"]], f1(float64(modelBytes)/1024); got != want {
			t.Fatalf("%s: TOTAL i8 memory %s KB, want %s", arch.name, got, want)
		}
	}
}
