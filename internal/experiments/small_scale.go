package experiments

import (
	"context"
	"fmt"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// smallRun is one (T, solver) outcome of the small-scale scenario.
type smallRun struct {
	tasks     int
	heuristic *core.Solution
	optimal   *core.Solution
	branches  int
}

// runSmallScale solves the small scenario for T = 1..maxOptimal with both
// solvers, and heuristic-only beyond.
func runSmallScale(maxT, maxOptimal int) ([]smallRun, error) {
	runs := make([]smallRun, 0, maxT)
	for tasks := 1; tasks <= maxT; tasks++ {
		in, err := workload.SmallScenario(tasks)
		if err != nil {
			return nil, err
		}
		h, err := core.SolveOffloaDNN(in)
		if err != nil {
			return nil, fmt.Errorf("T=%d heuristic: %w", tasks, err)
		}
		if err := in.Check(h.Assignments); err != nil {
			return nil, fmt.Errorf("T=%d heuristic infeasible: %w", tasks, err)
		}
		run := smallRun{tasks: tasks, heuristic: h}
		if tasks <= maxOptimal {
			o, stats, err := core.SolveOptimal(context.Background(), in)
			if err != nil {
				return nil, fmt.Errorf("T=%d optimal: %w", tasks, err)
			}
			if err := in.Check(o.Assignments); err != nil {
				return nil, fmt.Errorf("T=%d optimal infeasible: %w", tasks, err)
			}
			run.optimal = o
			run.branches = stats.BranchesExplored
		}
		runs = append(runs, run)
	}
	return runs, nil
}

func optimalCap(opt Options) int {
	if opt.Quick {
		return 3
	}
	return 5
}

func runFig6(opt Options) ([]Table, error) {
	runs, err := runSmallScale(5, optimalCap(opt))
	if err != nil {
		return nil, err
	}
	t := Table{
		title:   "Fig. 6 — average runtime [s] of the optimum vs OffloaDNN, small scenario",
		columns: []string{"T", "OffloaDNN [s]", "Optimum [s]", "speedup", "branches"},
		notes: []string{
			"paper shape: optimum runtime grows ~exponentially (1 s → 100 s); OffloaDNN stays >10x faster from T=2",
		},
	}
	for _, r := range runs {
		row := []string{
			fmt.Sprintf("%d", r.tasks),
			fmt.Sprintf("%.6f", r.heuristic.Runtime.Seconds()),
		}
		if r.optimal != nil {
			row = append(row,
				fmt.Sprintf("%.4f", r.optimal.Runtime.Seconds()),
				f1(float64(r.optimal.Runtime)/float64(r.heuristic.Runtime)),
				fmt.Sprintf("%d", r.branches),
			)
		} else {
			row = append(row, "(skipped: -quick)", "", "")
		}
		t.rows = append(t.rows, row)
	}
	return []Table{t}, nil
}

func runFig7(opt Options) ([]Table, error) {
	runs, err := runSmallScale(5, optimalCap(opt))
	if err != nil {
		return nil, err
	}
	// Normalize costs and memory to the largest value observed, matching
	// the paper's normalized axes.
	maxCost, maxMem := 0.0, 0.0
	for _, r := range runs {
		for _, s := range []*core.Solution{r.heuristic, r.optimal} {
			if s == nil {
				continue
			}
			if s.Cost > maxCost {
				maxCost = s.Cost
			}
			if s.Breakdown.MemoryGB > maxMem {
				maxMem = s.Breakdown.MemoryGB
			}
		}
	}
	cost := Table{
		title:   "Fig. 7 (left) — normalized DOT cost",
		columns: []string{"T", "OffloaDNN", "Optimum", "gap %"},
		notes:   []string{"paper shape: OffloaDNN matches the optimum very closely (negligible cost increase)"},
	}
	mem := Table{
		title:   "Fig. 7 (right) — normalized total required memory",
		columns: []string{"T", "OffloaDNN", "Optimum", "OffloaDNN GB", "budget use %"},
		notes:   []string{"paper shape: memory stays well below the quota M (paper: at most 64% of 8 GB)"},
	}
	for _, r := range runs {
		hRow := []string{fmt.Sprintf("%d", r.tasks), f(r.heuristic.Cost / maxCost)}
		mRow := []string{fmt.Sprintf("%d", r.tasks), f(r.heuristic.Breakdown.MemoryGB / maxMem)}
		if r.optimal != nil {
			gap := 0.0
			if r.optimal.Cost > 0 {
				gap = (r.heuristic.Cost - r.optimal.Cost) / r.optimal.Cost * 100
			}
			hRow = append(hRow, f(r.optimal.Cost/maxCost), f2(gap))
			mRow = append(mRow, f(r.optimal.Breakdown.MemoryGB/maxMem))
		} else {
			hRow = append(hRow, "-", "-")
			mRow = append(mRow, "-")
		}
		mRow = append(mRow,
			f2(r.heuristic.Breakdown.MemoryGB),
			f1(r.heuristic.Breakdown.MemoryGB/8*100))
		cost.rows = append(cost.rows, hRow)
		mem.rows = append(mem.rows, mRow)
	}
	return []Table{cost, mem}, nil
}

func runFig8(opt Options) ([]Table, error) {
	runs, err := runSmallScale(5, optimalCap(opt))
	if err != nil {
		return nil, err
	}
	panels := []struct {
		title string
		note  string
		get   func(*core.Solution) float64
	}{
		{
			title: "Fig. 8 (left) — weighted tasks admission ratio",
			note:  "paper shape: OffloaDNN equals the optimum (all tasks fully admitted)",
			get:   func(s *core.Solution) float64 { return s.Breakdown.WeightedAdmission },
		},
		{
			title: "Fig. 8 (center-left) — normalized no. of RBs allocated",
			note:  "paper shape: OffloaDNN performs as well as the optimum",
			get:   func(s *core.Solution) float64 { return s.Breakdown.RBsAllocated / 50 },
		},
		{
			title: "Fig. 8 (center-right) — total training compute usage (Σct/Ct)",
			note:  "paper shape: OffloaDNN slightly above the optimum (the source of its small cost gap)",
			get:   func(s *core.Solution) float64 { return s.Breakdown.TrainSeconds / 1000 },
		},
		{
			title: "Fig. 8 (right) — total inference compute usage (normalized to C)",
			note:  "paper shape: OffloaDNN *below* the optimum, thanks to compute-sorted cliques + first branch",
			get:   func(s *core.Solution) float64 { return s.Breakdown.ComputeUsage / 2.5 },
		},
	}
	out := make([]Table, 0, len(panels))
	for _, p := range panels {
		t := Table{
			title:   p.title,
			columns: []string{"T", "OffloaDNN", "Optimum"},
			notes:   []string{p.note},
		}
		for _, r := range runs {
			row := []string{fmt.Sprintf("%d", r.tasks), f(p.get(r.heuristic))}
			if r.optimal != nil {
				row = append(row, f(p.get(r.optimal)))
			} else {
				row = append(row, "-")
			}
			t.rows = append(t.rows, row)
		}
		out = append(out, t)
	}
	return out, nil
}

// ensure time is referenced (runtime fields).
var _ = time.Second
