package experiments

import (
	"fmt"
	"time"

	"offloadnn/internal/dnn"
	"offloadnn/internal/profile"
	"offloadnn/internal/tensor"
)

// profileArchs is the profile experiment's fixed grid of architectures:
// both catalog families at width 16 with 61 classes.
var profileArchs = []struct {
	name  string
	build func() *dnn.Model
}{
	{"resnet18", func() *dnn.Model {
		return dnn.BuildResNet18(dnn.ResNetConfig{
			InChannels: 3, NumClasses: 61, BaseWidth: 16, StageBlocks: [4]int{2, 2, 2, 2}, Seed: 1,
		})
	}},
	{"mobilenetv2", func() *dnn.Model {
		return dnn.BuildMobileNetV2(dnn.MobileNetConfig{
			InChannels: 3, NumClasses: 61, BaseWidth: 16, Expansion: 2, StageBlocks: [4]int{1, 2, 2, 1}, Seed: 1,
		})
	}},
}

// runProfile characterizes every block the way the DOT problem consumes
// it: the median forward time c(s) and the deployed footprint µ(s) over a
// 16×16 dummy input, at each kernel precision.
func runProfile(opt Options) ([]Table, error) {
	var tables []Table
	for _, arch := range profileArchs {
		t := Table{
			title:   "Block profile — " + arch.name + ", width 16, 16x16 input: c(s) [µs] and µ(s) [KB]",
			columns: []string{"block", "stage", "params"},
		}
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
			// ProfileModel sets the precision in place: a fresh model each.
			m := arch.build()
			p := profile.Profiler{ImageSize: 16, Repeats: 9, Warmup: 2, Workers: opt.workers, Precision: prec}
			costs, err := p.ProfileModel(m)
			if err != nil {
				return nil, err
			}
			if t.rows == nil {
				for _, c := range costs {
					t.rows = append(t.rows, []string{c.ID, fmt.Sprint(c.Stage), fmt.Sprint(c.Params)})
				}
				t.rows = append(t.rows, []string{"TOTAL", "", fmt.Sprint(m.ParamCount())})
			}
			t.columns = append(t.columns, "c(s) "+prec.String(), "µ(s) "+prec.String())
			cells := func(row int, c time.Duration, mem int64) {
				t.rows[row] = append(t.rows[row], fmt.Sprint(c.Round(time.Microsecond).Microseconds()), f1(float64(mem)/1024))
			}
			for i, c := range costs {
				cells(i, c.ComputeTime, c.MemoryBytes)
			}
			cells(len(costs), profile.TotalCompute(costs), profile.TotalMemory(costs))
		}
		tables = append(tables, t)
	}
	return tables, nil
}
