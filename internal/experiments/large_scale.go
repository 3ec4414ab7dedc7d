package experiments

import (
	"fmt"

	"offloadnn/internal/core"
	"offloadnn/internal/semoran"
	"offloadnn/internal/workload"
)

// largeRun is one load level's outcome for both systems.
type largeRun struct {
	load      workload.Load
	instance  *core.Instance
	offloaDNN *core.Solution
	semORAN   *semoran.Report
}

func runLargeScale() ([]largeRun, error) {
	loads := []workload.Load{workload.LoadLow, workload.LoadMedium, workload.LoadHigh}
	runs := make([]largeRun, 0, len(loads))
	for _, load := range loads {
		in, err := workload.LargeScenario(load)
		if err != nil {
			return nil, err
		}
		sol, err := core.SolveOffloaDNN(in)
		if err != nil {
			return nil, fmt.Errorf("load %v: OffloaDNN: %w", load, err)
		}
		if err := in.Check(sol.Assignments); err != nil {
			return nil, fmt.Errorf("load %v: OffloaDNN infeasible: %w", load, err)
		}
		rep, err := semoran.Solve(in, semoran.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("load %v: SEM-O-RAN: %w", load, err)
		}
		if err := semoran.Check(in, rep); err != nil {
			return nil, fmt.Errorf("load %v: SEM-O-RAN infeasible: %w", load, err)
		}
		runs = append(runs, largeRun{load: load, instance: in, offloaDNN: sol, semORAN: rep})
	}
	return runs, nil
}

func runFig9(Options) ([]Table, error) {
	runs, err := runLargeScale()
	if err != nil {
		return nil, err
	}
	top := Table{
		title:   "Fig. 9 (top) — OffloaDNN per-task admission ratio",
		columns: []string{"task"},
		notes: []string{
			"paper shape, low: all 20 tasks at ratio 1; medium: 19 at 1 plus the lowest-priority partial;",
			"high: top-priority tasks at 1, a diminishing-ratio band, lowest tasks rejected (RB saturation)",
		},
	}
	bottom := Table{
		title:   "Fig. 9 (bottom) — SEM-O-RAN per-task admission (binary)",
		columns: []string{"task"},
		notes:   []string{"paper shape: 16 of 20 admitted at low/medium, 13 at high; all-or-nothing"},
	}
	for _, r := range runs {
		top.columns = append(top.columns, r.load.String())
		bottom.columns = append(bottom.columns, r.load.String())
	}
	nTasks := len(runs[0].instance.Tasks)
	for ti := 0; ti < nTasks; ti++ {
		rowT := []string{fmt.Sprintf("%d", ti+1)}
		rowB := []string{fmt.Sprintf("%d", ti+1)}
		for _, r := range runs {
			rowT = append(rowT, f2(r.offloaDNN.Assignments[ti].Z))
			z := 0.0
			if r.semORAN.Decisions[ti].Admitted {
				z = 1
			}
			rowB = append(rowB, f2(z))
		}
		top.rows = append(top.rows, rowT)
		bottom.rows = append(bottom.rows, rowB)
	}
	return []Table{top, bottom}, nil
}

func runFig10(Options) ([]Table, error) {
	runs, err := runLargeScale()
	if err != nil {
		return nil, err
	}
	panels := []struct {
		title string
		note  string
		offl  func(largeRun) float64
		sem   func(largeRun) float64
	}{
		{
			title: "Fig. 10 (left) — weighted tasks admission ratio",
			note:  "paper shape: both decrease with load; OffloaDNN always above SEM-O-RAN",
			offl:  func(r largeRun) float64 { return r.offloaDNN.Breakdown.WeightedAdmission },
			sem:   func(r largeRun) float64 { return r.semORAN.WeightedAdmission },
		},
		{
			title: "Fig. 10 (center-left) — normalized no. of RBs allocated",
			note:  "paper shape: both approach saturation as the load grows",
			offl:  func(r largeRun) float64 { return r.offloaDNN.Breakdown.RBsAllocated / 100 },
			sem:   func(r largeRun) float64 { return r.semORAN.RBsAllocated / 100 },
		},
		{
			title: "Fig. 10 (center-right) — normalized total required memory",
			note: "paper shape: OffloaDNN far below SEM-O-RAN (block sharing among 20 tasks); " +
				"constant at low/medium, lower at high (rejected tasks deactivate blocks)",
			offl: func(r largeRun) float64 { return r.offloaDNN.Breakdown.MemoryGB / 16 },
			sem:  func(r largeRun) float64 { return r.semORAN.MemoryGB / 16 },
		},
		{
			title: "Fig. 10 (right) — total inference compute usage (normalized to C)",
			note:  "paper shape: grows with load for both; OffloaDNN substantially lower",
			offl:  func(r largeRun) float64 { return r.offloaDNN.Breakdown.ComputeUsage / 10 },
			sem:   func(r largeRun) float64 { return r.semORAN.ComputeUsage / 10 },
		},
	}
	out := make([]Table, 0, len(panels))
	for _, p := range panels {
		t := Table{
			title:   p.title,
			columns: []string{"load", "OffloaDNN", "SEM-O-RAN"},
			notes:   []string{p.note},
		}
		for _, r := range runs {
			t.rows = append(t.rows, []string{r.load.String(), f(p.offl(r)), f(p.sem(r))})
		}
		out = append(out, t)
	}
	return out, nil
}

func runHeadline(Options) ([]Table, error) {
	runs, err := runLargeScale()
	if err != nil {
		return nil, err
	}
	costs := Table{
		title:   "§V-A — total DOT cost and training compute usage under OffloaDNN",
		columns: []string{"load", "DOT cost", "training usage (Σct/Ct)"},
		notes: []string{
			"paper values: DOT cost [0.35, 0.44, 0.74]; training usage [0.81, 0.81, 0.67] for low/medium/high",
		},
	}
	var admO, admS, memO, memS, compO, compS, rbO, rbS float64
	for _, r := range runs {
		costs.rows = append(costs.rows, []string{
			r.load.String(),
			f(r.offloaDNN.Cost),
			f(r.offloaDNN.Breakdown.TrainSeconds / 1000),
		})
		admO += float64(r.offloaDNN.Breakdown.AdmittedTasks)
		admS += float64(r.semORAN.AdmittedTasks)
		memO += r.offloaDNN.Breakdown.MemoryGB
		memS += r.semORAN.MemoryGB
		compO += r.offloaDNN.Breakdown.ComputeUsage
		compS += r.semORAN.ComputeUsage
		rbO += r.offloaDNN.Breakdown.RBsAllocated
		rbS += r.semORAN.RBsAllocated
	}
	gains := Table{
		title:   "§V-A — headline gains of OffloaDNN over SEM-O-RAN (average across loads)",
		columns: []string{"metric", "OffloaDNN", "SEM-O-RAN", "gain"},
		notes: []string{
			"paper: +26.9% admitted tasks, −82.5% memory, −77.3% inference compute, −4.4% radio resources",
		},
	}
	gains.rows = append(gains.rows,
		[]string{"admitted tasks (sum over loads)", f1(admO), f1(admS),
			fmt.Sprintf("+%.1f%%", (admO/admS-1)*100)},
		[]string{"memory [GB] (mean)", f2(memO / 3), f2(memS / 3),
			fmt.Sprintf("-%.1f%%", (1-memO/memS)*100)},
		[]string{"inference compute [s/s] (mean)", f(compO / 3), f(compS / 3),
			fmt.Sprintf("-%.1f%%", (1-compO/compS)*100)},
		[]string{"RBs allocated (mean)", f1(rbO / 3), f1(rbS / 3),
			fmt.Sprintf("%+.1f%%", (rbO/rbS-1)*100)},
	)
	return []Table{costs, gains}, nil
}
