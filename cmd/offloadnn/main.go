// Command offloadnn solves a DOT problem instance described in JSON and
// prints the admission, path-selection and resource-allocation decisions.
//
// Usage:
//
//	offloadnn -example > instance.json    # write a sample instance
//	offloadnn -in instance.json           # solve with the OffloaDNN heuristic
//	offloadnn -in instance.json -optimal  # exhaustive optimum (small instances!)
//	offloadnn -in instance.json -json     # machine-readable output
//	offloadnn -scenario small:5           # solve a built-in Table-IV scenario
//	offloadnn -scenario large:high        # (small:1..5, large:low|medium|high,
//	offloadnn -scenario hetero:medium     #  hetero:low|medium|high)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
	"offloadnn/internal/workload"
)

// fileInstance is the JSON schema of a DOT instance.
type fileInstance struct {
	Alpha     float64              `json:"alpha"`
	Resources fileResources        `json:"resources"`
	Blocks    map[string]fileBlock `json:"blocks"`
	Tasks     []fileTask           `json:"tasks"`
}

type fileResources struct {
	RBs                int     `json:"rbs"`
	ComputeSeconds     float64 `json:"computeSeconds"`
	MemoryGB           float64 `json:"memoryGB"`
	TrainBudgetSeconds float64 `json:"trainBudgetSeconds"`
	// BitsPerRBPerSecond selects a fixed-rate capacity model; set
	// useCQITable to map SNR through the LTE CQI table instead.
	BitsPerRBPerSecond float64 `json:"bitsPerRBPerSecond"`
	UseCQITable        bool    `json:"useCQITable"`
}

type fileBlock struct {
	ComputeSeconds float64 `json:"computeSeconds"`
	MemoryGB       float64 `json:"memoryGB"`
	TrainSeconds   float64 `json:"trainSeconds"`
}

type fileTask struct {
	ID           string     `json:"id"`
	Priority     float64    `json:"priority"`
	Rate         float64    `json:"rate"`
	MinAccuracy  float64    `json:"minAccuracy"`
	MaxLatencyMS float64    `json:"maxLatencyMs"`
	InputBits    float64    `json:"inputBits"`
	SNRdB        float64    `json:"snrDb"`
	Paths        []filePath `json:"paths"`
}

type filePath struct {
	ID       string   `json:"id"`
	DNN      string   `json:"dnn"`
	Blocks   []string `json:"blocks"`
	Accuracy float64  `json:"accuracy"`
}

type fileAssignment struct {
	Task     string  `json:"task"`
	Admitted bool    `json:"admitted"`
	Z        float64 `json:"z"`
	RBs      int     `json:"rbs"`
	DNN      string  `json:"dnn,omitempty"`
	Path     string  `json:"path,omitempty"`
}

type fileSolution struct {
	Cost          float64          `json:"cost"`
	MemoryGB      float64          `json:"memoryGB"`
	ComputeUsage  float64          `json:"computeUsage"`
	RBsAllocated  float64          `json:"rbsAllocated"`
	TrainSeconds  float64          `json:"trainSeconds"`
	AdmittedTasks int              `json:"admittedTasks"`
	RuntimeMS     float64          `json:"runtimeMs"`
	Assignments   []fileAssignment `json:"assignments"`
}

func main() {
	os.Exit(run())
}

func run() int {
	inPath := flag.String("in", "", "instance JSON file (- for stdin)")
	scenario := flag.String("scenario", "", "built-in scenario: small:N, large:LOAD, hetero:LOAD")
	optimal := flag.Bool("optimal", false, "solve exhaustively instead of with the heuristic")
	jsonOut := flag.Bool("json", false, "print the solution as JSON")
	example := flag.Bool("example", false, "print a sample instance and exit")
	flag.Parse()

	if *example {
		return printExample()
	}
	var in *core.Instance
	switch {
	case *scenario != "":
		var err error
		in, err = builtinScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "offloadnn:", err)
			return 2
		}
	case *inPath != "":
		var r io.Reader
		if *inPath == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(*inPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "offloadnn:", err)
				return 1
			}
			defer f.Close()
			r = f
		}
		var fi fileInstance
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fi); err != nil {
			fmt.Fprintln(os.Stderr, "offloadnn: parse:", err)
			return 1
		}
		var err error
		in, err = fi.toInstance()
		if err != nil {
			fmt.Fprintln(os.Stderr, "offloadnn:", err)
			return 1
		}
	default:
		fmt.Fprintln(os.Stderr, "offloadnn: -in or -scenario is required (or -example); see -h")
		return 2
	}

	var sol *core.Solution
	var solveErr error
	if *optimal {
		var stats *core.OptimalStats
		sol, stats, solveErr = core.SolveOptimal(context.Background(), in)
		if solveErr == nil {
			fmt.Fprintf(os.Stderr, "explored %d branches (%d pruned)\n",
				stats.BranchesExplored, stats.BranchesPruned)
		}
	} else {
		sol, solveErr = core.SolveOffloaDNN(in)
	}
	if solveErr != nil {
		fmt.Fprintln(os.Stderr, "offloadnn: solve:", solveErr)
		return 1
	}
	if err := in.Check(sol.Assignments); err != nil {
		fmt.Fprintln(os.Stderr, "offloadnn: solution failed verification:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toFileSolution(sol)); err != nil {
			fmt.Fprintln(os.Stderr, "offloadnn:", err)
			return 1
		}
		return 0
	}
	printText(sol)
	return 0
}

func (fi fileInstance) toInstance() (*core.Instance, error) {
	var capModel radio.CapacityModel
	if fi.Resources.UseCQITable {
		capModel = radio.NewCQITable()
	} else {
		if fi.Resources.BitsPerRBPerSecond <= 0 {
			return nil, fmt.Errorf("resources.bitsPerRBPerSecond must be positive (or set useCQITable)")
		}
		capModel = radio.FixedRate{Rate: fi.Resources.BitsPerRBPerSecond}
	}
	in := &core.Instance{
		Alpha:  fi.Alpha,
		Blocks: make(map[string]core.BlockSpec, len(fi.Blocks)),
		Res: core.Resources{
			RBs:                fi.Resources.RBs,
			ComputeSeconds:     fi.Resources.ComputeSeconds,
			MemoryGB:           fi.Resources.MemoryGB,
			TrainBudgetSeconds: fi.Resources.TrainBudgetSeconds,
			Capacity:           capModel,
		},
	}
	for id, b := range fi.Blocks {
		in.Blocks[id] = core.BlockSpec{
			ID:             id,
			ComputeSeconds: b.ComputeSeconds,
			MemoryGB:       b.MemoryGB,
			TrainSeconds:   b.TrainSeconds,
		}
	}
	for _, t := range fi.Tasks {
		task := core.Task{
			ID:          t.ID,
			Priority:    t.Priority,
			Rate:        t.Rate,
			MinAccuracy: t.MinAccuracy,
			MaxLatency:  time.Duration(t.MaxLatencyMS * float64(time.Millisecond)),
			InputBits:   t.InputBits,
			SNRdB:       t.SNRdB,
		}
		for _, p := range t.Paths {
			task.Paths = append(task.Paths, core.PathSpec{
				ID: p.ID, DNN: p.DNN, Blocks: p.Blocks, Accuracy: p.Accuracy,
			})
		}
		in.Tasks = append(in.Tasks, task)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func toFileSolution(sol *core.Solution) fileSolution {
	out := fileSolution{
		Cost:          sol.Cost,
		MemoryGB:      sol.Breakdown.MemoryGB,
		ComputeUsage:  sol.Breakdown.ComputeUsage,
		RBsAllocated:  sol.Breakdown.RBsAllocated,
		TrainSeconds:  sol.Breakdown.TrainSeconds,
		AdmittedTasks: sol.Breakdown.AdmittedTasks,
		RuntimeMS:     float64(sol.Runtime) / float64(time.Millisecond),
	}
	for _, a := range sol.Assignments {
		fa := fileAssignment{Task: a.TaskID, Admitted: a.Admitted(), Z: a.Z, RBs: a.RBs}
		if a.Path != nil {
			fa.DNN = a.Path.DNN
			fa.Path = a.Path.ID
		}
		out.Assignments = append(out.Assignments, fa)
	}
	return out
}

func printText(sol *core.Solution) {
	fmt.Printf("DOT cost %.4f (admission %.4f + training %.4f + radio %.4f + inference %.4f)\n",
		sol.Cost, sol.Breakdown.AdmissionTerm, sol.Breakdown.TrainTerm,
		sol.Breakdown.RadioTerm, sol.Breakdown.InferTerm)
	fmt.Printf("memory %.2f GB | compute %.4f s/s | RBs %.1f | training %.0f s | solved in %v\n",
		sol.Breakdown.MemoryGB, sol.Breakdown.ComputeUsage, sol.Breakdown.RBsAllocated,
		sol.Breakdown.TrainSeconds, sol.Runtime.Round(time.Microsecond))
	for _, a := range sol.Assignments {
		if !a.Admitted() {
			fmt.Printf("  %-12s REJECTED\n", a.TaskID)
			continue
		}
		fmt.Printf("  %-12s z=%.3f  r=%d RBs  dnn=%s path=%s\n",
			a.TaskID, a.Z, a.RBs, a.Path.DNN, a.Path.ID)
	}
}

func printExample() int {
	example := fileInstance{
		Alpha: 0.5,
		Resources: fileResources{
			RBs: 50, ComputeSeconds: 2.5, MemoryGB: 8, TrainBudgetSeconds: 1000,
			BitsPerRBPerSecond: 0.35e6,
		},
		Blocks: map[string]fileBlock{
			"base/s1":     {ComputeSeconds: 0.0012, MemoryGB: 0.10},
			"base/s2":     {ComputeSeconds: 0.0017, MemoryGB: 0.16},
			"base/s3":     {ComputeSeconds: 0.0024, MemoryGB: 0.28},
			"ft/cars/s4":  {ComputeSeconds: 0.0032, MemoryGB: 0.52, TrainSeconds: 120},
			"ft/cars/s4p": {ComputeSeconds: 0.0008, MemoryGB: 0.10, TrainSeconds: 120},
		},
		Tasks: []fileTask{{
			ID: "detect-cars", Priority: 0.8, Rate: 5, MinAccuracy: 0.7,
			MaxLatencyMS: 300, InputBits: 350e3, SNRdB: 20,
			Paths: []filePath{
				{ID: "full", DNN: "resnet18", Accuracy: 0.92,
					Blocks: []string{"base/s1", "base/s2", "base/s3", "ft/cars/s4"}},
				{ID: "pruned", DNN: "resnet18-p80", Accuracy: 0.88,
					Blocks: []string{"base/s1", "base/s2", "base/s3", "ft/cars/s4p"}},
			},
		}},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(example); err != nil {
		fmt.Fprintln(os.Stderr, "offloadnn:", err)
		return 1
	}
	return 0
}

// builtinScenario parses "small:N", "large:LOAD" or "hetero:LOAD".
func builtinScenario(spec string) (*core.Instance, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("scenario %q: want kind:arg (e.g. small:5)", spec)
	}
	parseLoad := func() (workload.Load, error) {
		switch arg {
		case "low":
			return workload.LoadLow, nil
		case "medium":
			return workload.LoadMedium, nil
		case "high":
			return workload.LoadHigh, nil
		default:
			return 0, fmt.Errorf("scenario %q: load must be low|medium|high", spec)
		}
	}
	switch kind {
	case "small":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec, err)
		}
		return workload.SmallScenario(n)
	case "large":
		load, err := parseLoad()
		if err != nil {
			return nil, err
		}
		return workload.LargeScenario(load)
	case "hetero":
		load, err := parseLoad()
		if err != nil {
			return nil, err
		}
		return workload.HeterogeneousScenario(load)
	default:
		return nil, fmt.Errorf("scenario %q: unknown kind %q", spec, kind)
	}
}
