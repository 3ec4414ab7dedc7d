package experiments

import (
	"fmt"
	"time"

	"offloadnn/internal/edge"
	"offloadnn/internal/metrics"
	"offloadnn/internal/workload"
)

func runFig11(opt Options) ([]Table, error) {
	in, err := workload.SmallScenario(5)
	if err != nil {
		return nil, err
	}
	// The Colosseum validation uses the full 20 MHz cell: 100 RBs.
	res := in.Res
	res.RBs = 100
	controller := edge.NewController(res)
	dep, err := controller.Admit(in.Tasks, in.Blocks, in.Alpha)
	if err != nil {
		return nil, err
	}
	cfg := edge.DefaultEmulatorConfig()
	if opt.workers > 0 {
		cfg.Workers = opt.workers
	}
	em, err := edge.NewEmulator(in, dep, cfg)
	if err != nil {
		return nil, err
	}
	run, err := em.Run()
	if err != nil {
		return nil, err
	}

	// Time series: per-task mean of the 3-sample moving average in 2 s
	// buckets — the series Fig. 11 plots.
	series := Table{
		title:   "Fig. 11 — end-to-end latency [s] over time (moving average, window 3)",
		columns: []string{"t [s]"},
		notes:   []string{"paper shape: every task's trace stays below its latency target throughout the run"},
	}
	const bucket = 2 * time.Second
	nBuckets := 10
	perBucket := make([][]string, nBuckets)
	for b := range perBucket {
		perBucket[b] = []string{fmt.Sprintf("%d", (b+1)*2)}
	}
	summary := Table{
		title:   "Fig. 11 (summary) — per-task latency vs target",
		columns: []string{"task", "target [s]", "mean [s]", "p95 [s]", "max [s]", "samples", "violations"},
	}
	for _, tr := range run.Traces {
		if len(tr.Samples) == 0 {
			continue
		}
		series.columns = append(series.columns, tr.TaskID)
		lats := make([]float64, len(tr.Samples))
		for i, s := range tr.Samples {
			lats[i] = s.Latency.Seconds()
		}
		ma := metrics.MovingAverage(lats, 3)
		for b := 0; b < nBuckets; b++ {
			lo := time.Duration(b) * bucket
			hi := lo + bucket
			sum, n := 0.0, 0
			for i, s := range tr.Samples {
				if s.At >= lo && s.At < hi {
					sum += ma[i]
					n++
				}
			}
			if n > 0 {
				perBucket[b] = append(perBucket[b], f(sum/float64(n)))
			} else {
				perBucket[b] = append(perBucket[b], "-")
			}
		}
		s, err := metrics.Summarize(lats)
		if err != nil {
			return nil, err
		}
		p95, err := metrics.Percentile(lats, 95)
		if err != nil {
			return nil, err
		}
		summary.rows = append(summary.rows, []string{
			tr.TaskID,
			f2(tr.Target.Seconds()),
			f(s.Mean),
			f(p95),
			f(s.Max),
			fmt.Sprintf("%d", len(tr.Samples)),
			fmt.Sprintf("%d", tr.Violations),
		})
	}
	series.rows = perBucket
	return []Table{series, summary}, nil
}
