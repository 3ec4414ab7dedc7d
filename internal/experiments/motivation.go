package experiments

import (
	"fmt"
	"time"

	"offloadnn/internal/dataset"
	"offloadnn/internal/dnn"
	"offloadnn/internal/profile"
	"offloadnn/internal/train"
)

func runTable1(Options) ([]Table, error) {
	t := Table{
		title:   "Table I — DNN block configurations (ResNet)",
		columns: []string{"name", "shared stages", "pruned", "description"},
	}
	for _, c := range dnn.TableI() {
		pruned := "no"
		if c.PruneRatio > 0 {
			pruned = fmt.Sprintf("%.0f%%", c.PruneRatio*100)
		}
		t.rows = append(t.rows, []string{
			"CONFIG " + c.Name,
			fmt.Sprintf("%d", c.SharedStages),
			pruned,
			c.Description,
		})
	}
	return []Table{t}, nil
}

func runTable2(Options) ([]Table, error) {
	t := Table{
		title:   "Table II — base dataset description (60 categories)",
		columns: []string{"group", "categories"},
	}
	counts := map[string]int{}
	order := []string{}
	for _, c := range dataset.BaseCategories() {
		if counts[c.Group] == 0 {
			order = append(order, c.Group)
		}
		counts[c.Group]++
	}
	total := 0
	for _, g := range order {
		t.rows = append(t.rows, []string{g, fmt.Sprintf("%d", counts[g])})
		total += counts[g]
	}
	t.rows = append(t.rows, []string{"total", fmt.Sprintf("%d", total)})
	return []Table{t}, nil
}

func runFig2(Options) ([]Table, error) {
	configs := []string{"A", "B", "C", "D", "E"}
	curves := Table{
		title:   "Fig. 2 (left) — testing accuracy [%] vs training epoch (calibrated ResNet-18 scale)",
		columns: []string{"epoch", "A", "B", "C", "D", "E"},
		notes: []string{
			"paper shape: A needs >200 epochs to 80% but ends highest after 250+;",
			"B and C converge to 80% fastest, then overfit; D and E converge slower than C",
		},
	}
	epochs := []int{1, 25, 50, 100, 150, 200, 250}
	params := make(map[string]train.ConvergenceParams, len(configs))
	for _, c := range configs {
		p, err := train.PaperConvergence(c)
		if err != nil {
			return nil, err
		}
		params[c] = p
	}
	for _, e := range epochs {
		row := []string{fmt.Sprintf("%d", e)}
		for _, c := range configs {
			row = append(row, f1(params[c].Accuracy(float64(e))))
		}
		curves.rows = append(curves.rows, row)
	}
	reach := Table{
		title:   "Fig. 2 (left, derived) — epochs to reach 80% testing accuracy",
		columns: []string{"config", "epochs to 80%"},
	}
	for _, c := range configs {
		e := params[c].EpochsToReach(80, 400)
		cell := fmt.Sprintf("%d", e)
		if e < 0 {
			cell = ">400"
		}
		reach.rows = append(reach.rows, []string{"CONFIG " + c, cell})
	}

	mem := Table{
		title:   "Fig. 2 (right) — peak GPU memory occupancy [MiB] during training",
		columns: []string{"config", "peak MiB", "vs CONFIG A"},
		notes:   []string{"paper shape: CONFIG B/C ≈ 1.8x less than baseline CONFIG A"},
	}
	stats := dnn.ResNet18Stats(64, 224, 61, [4]float64{})
	mm := train.DefaultMemoryModel()
	var baseline float64
	for _, c := range configs {
		cfg, err := dnn.ConfigByName(c)
		if err != nil {
			return nil, err
		}
		mib := mm.PeakMiB(stats, cfg)
		if c == "A" {
			baseline = mib
		}
		mem.rows = append(mem.rows, []string{
			"CONFIG " + c,
			fmt.Sprintf("%.0f", mib),
			fmt.Sprintf("%.2fx less", baseline/mib),
		})
	}
	return []Table{curves, reach, mem}, nil
}

// runFig2Real demonstrates the Fig. 2 mechanism with *real* training on the
// scaled-down engine: a base model is pre-trained on a subset of the
// Table-II categories, then each configuration fine-tunes toward a novel
// "mushroom" class. The measured facts carried to paper scale by the
// calibrated curves are (i) shared configs train far fewer parameters and
// (ii) they reach useful accuracy in fewer epochs than training from
// scratch.
func runFig2Real(opt Options) ([]Table, error) {
	gen := dataset.Generator{ImageSize: 8, Noise: 0.2}
	baseCats := dataset.BaseCategories()[:6]
	novel := dataset.NovelCategory(baseCats, "mushroom", "grocery")
	allCats := append(append([]dataset.Category{}, baseCats...), novel)

	pretrainEpochs, tuneEpochs, perClass := 10, 8, 12
	if opt.Quick {
		pretrainEpochs, tuneEpochs, perClass = 4, 3, 6
	}

	// Pre-train the base backbone on the base categories.
	base := dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: len(baseCats), BaseWidth: 6,
		StageBlocks: [4]int{1, 1, 1, 1}, Seed: 11,
	})
	baseSplit := dataset.Generate(gen, baseCats, perClass, 4, 21)
	tr, err := train.NewTrainer(base, train.NewAdam(0.01, 1e-4),
		train.CosineAnnealing{Base: 0.01, Min: 1e-4, Total: pretrainEpochs}, 16, 31)
	if err != nil {
		return nil, err
	}
	for e := 0; e < pretrainEpochs; e++ {
		if _, err := tr.TrainEpoch(baseSplit); err != nil {
			return nil, err
		}
	}

	tuneSplit := dataset.Generate(gen, allCats, perClass, 4, 22)
	t := Table{
		title: "Fig. 2 (mechanism) — real scaled-down fine-tuning toward a novel class",
		columns: []string{"config", "trainable params", "of total %", "loss after tuning",
			"test acc %", "novel-class acc %"},
		notes: []string{
			"measured on the real engine (8x8 images, width-6 ResNet); shows the mechanism behind",
			"the calibrated Fig. 2 curves: sharing trains far fewer parameters at comparable accuracy",
		},
	}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		cfg, err := dnn.ConfigByName(name)
		if err != nil {
			return nil, err
		}
		m, err := dnn.BuildConfigModel(base, cfg, "mushroom", len(allCats), 41)
		if err != nil {
			return nil, err
		}
		tt, err := train.NewTrainer(m, train.NewAdam(0.01, 1e-4),
			train.CosineAnnealing{Base: 0.01, Min: 1e-4, Total: tuneEpochs}, 16, 51)
		if err != nil {
			return nil, err
		}
		loss := 0.0
		for e := 0; e < tuneEpochs; e++ {
			if loss, err = tt.TrainEpoch(tuneSplit); err != nil {
				return nil, err
			}
		}
		acc, err := train.EvaluateModel(m, tuneSplit)
		if err != nil {
			return nil, err
		}
		novelAcc, err := train.EvaluateClass(m, tuneSplit, novel.ID)
		if err != nil {
			return nil, err
		}
		t.rows = append(t.rows, []string{
			"CONFIG " + name,
			fmt.Sprintf("%d", m.TrainableParamCount()),
			f1(float64(m.TrainableParamCount()) / float64(m.ParamCount()) * 100),
			f(loss),
			f1(acc * 100),
			f1(novelAcc * 100),
		})
	}
	return []Table{t}, nil
}

func runFig3(opt Options) ([]Table, error) {
	// Build the base backbone once; each configuration derives from it.
	base := dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: 61, BaseWidth: 16,
		StageBlocks: [4]int{2, 2, 2, 2}, Seed: 13,
	})
	prof := profile.Profiler{ImageSize: 16, Repeats: 9, Warmup: 2, Workers: opt.workers}

	type measured struct {
		name    string
		compute time.Duration
		params  int
	}
	var rows []measured
	for _, name := range []string{"A", "B", "C", "D", "E",
		"A-pruned", "B-pruned", "C-pruned", "D-pruned", "E-pruned"} {
		cfg, err := dnn.ConfigByName(name)
		if err != nil {
			return nil, err
		}
		m, err := dnn.BuildConfigModel(base, cfg, "guitar", 62, 43)
		if err != nil {
			return nil, err
		}
		if m, err = dnn.ApplyConfigPruning(m, cfg, 44); err != nil {
			return nil, err
		}
		costs, err := prof.ProfileModel(m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, measured{
			name:    name,
			compute: profile.TotalCompute(costs),
			params:  m.ParamCount(),
		})
	}
	// Calibrate the measured times so the unpruned CONFIG A lands at the
	// paper's ~8.7 ms GPU inference time.
	var baseA time.Duration
	for _, r := range rows {
		if r.name == "A" {
			baseA = r.compute
		}
	}
	scale := 8.7 / (float64(baseA) / float64(time.Millisecond))

	left := Table{
		title: "Fig. 3 (left) — inference compute time [ms], dummy-tensor timing " +
			"(measured on the real engine, calibrated to CONFIG A = 8.7 ms)",
		columns: []string{"config", "w/o pruning [ms]", "pruned [ms]", "params w/o", "params pruned"},
		notes: []string{
			"paper shape: pruned < unpruned everywhere; A-pruned fastest (everything pruned);",
			"B-pruned slowest of the pruned set (4 shared unpruned blocks), then C, D, E decreasing",
		},
	}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		var full, pruned measured
		for _, r := range rows {
			if r.name == name {
				full = r
			}
			if r.name == name+"-pruned" {
				pruned = r
			}
		}
		left.rows = append(left.rows, []string{
			"CONFIG " + name,
			f2(float64(full.compute) / float64(time.Millisecond) * scale),
			f2(float64(pruned.compute) / float64(time.Millisecond) * scale),
			fmt.Sprintf("%d", full.params),
			fmt.Sprintf("%d", pruned.params),
		})
	}

	right := Table{
		title:   "Fig. 3 (right) — average class accuracy [%] for \"electric guitar\" (calibrated)",
		columns: []string{"config", "w/o pruning", "pruned"},
		notes: []string{
			"paper shape: pruning costs every config a few points; CONFIG B retains the most",
			"accuracy after pruning (most blocks inherited unpruned from the base model)",
		},
	}
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		full, err := train.PaperClassAccuracy(name)
		if err != nil {
			return nil, err
		}
		pruned, err := train.PaperClassAccuracy(name + "-pruned")
		if err != nil {
			return nil, err
		}
		right.rows = append(right.rows, []string{"CONFIG " + name, f1(full), f1(pruned)})
	}
	return []Table{left, right}, nil
}
