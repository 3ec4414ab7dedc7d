// Command bench is the repository's benchmark: six seeded workloads that
// drive the frame path and the epoch path through the public functions of
// the internal packages, check every answer, and report end-to-end
// metrics (untraced run) or per-layer metrics (traced run). README.md has
// the tables; BENCHMARK.json at the repository root is generated from
// metrics.go.
//
//	bench -workload paper-large -seed 1 -seconds 10 -trace 0   one run; the result line comes last
//	bench -seed 1 [-repeat K] [-out results.json]              every workload, untraced and traced
//	bench compare old.json new.json                            tolerance-checked comparison
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatal(fmt.Errorf("usage: bench compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	var (
		workload  = flag.String("workload", "", "run this workload only (default: all six, untraced and traced)")
		seed      = flag.Int64("seed", 1, fmt.Sprintf("input seed; %d is the held-out seed", heldOutSeed))
		seconds   = flag.Float64("seconds", runSeconds, "how long a run measures")
		trace     = flag.Int("trace", 0, "with -workload: 0 measures end-to-end metrics with tracing off, 1 measures per-layer metrics and writes the spans")
		repeat    = flag.Int("repeat", 1, "without -workload: run this many full sets and report whether they agree")
		out       = flag.String("out", "", "without -workload: write the sets to this results file")
		outDir    = flag.String("trace-dir", filepath.Join("bench", "out"), "where traced runs write <workload>.spans.json")
		setupOnly = flag.Bool("setup-only", false, "internal: set the workload up, print the set-up times, exit")
		writeMan  = flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	switch {
	case *writeMan != "":
		buf, err := manifest()
		if err == nil {
			err = os.WriteFile(*writeMan, buf, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	case *workload != "":
		rc := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, setupOnly: *setupOnly, outDir: *outDir}
		if err := runWorkload(rc); err != nil {
			fatal(err)
		}
	default:
		if err := runAll(*seed, *seconds, *repeat, *out, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runAll runs every workload untraced and traced, each in a process of
// its own so heap and peak RSS do not leak between them, `repeat` times.
func runAll(seed int64, seconds float64, repeat int, outPath, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Meta: collectMeta(), Seed: seed, Seconds: seconds}
	for set := 0; set < repeat; set++ {
		results := make(map[string]workloadResult)
		for _, wl := range workloads {
			var r workloadResult
			for _, trace := range []string{"0", "1"} {
				cmd := osexec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-trace-dir", traceDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					return fmt.Errorf("%s -trace %s: %w", wl.Name, trace, err)
				}
				var line resultLine
				if err := json.Unmarshal([]byte(lastLine(string(stdout))), &line); err != nil {
					return fmt.Errorf("%s -trace %s: result line: %w", wl.Name, trace, err)
				}
				vals := make(map[string]float64, len(line.Metrics))
				for name, m := range line.Metrics {
					vals[name] = m.Value
				}
				if trace == "0" {
					r.Correct, r.Attempted, r.Failed, r.EndToEnd = line.Correct, line.Attempted, line.Failed, vals
				} else {
					r.Correct, r.PerLayer = r.Correct && line.Correct, vals
				}
			}
			results[wl.Name] = r
		}
		file.Sets = append(file.Sets, results)
	}
	fmt.Println()
	allCorrect := true
	for _, wl := range workloads {
		for _, set := range file.Sets {
			allCorrect = allCorrect && set[wl.Name].Correct
		}
	}
	agree := agreement(os.Stdout, &file)
	fmt.Printf("sets %d, all answers correct %v, sets agree within bounds %v\n", len(file.Sets), allCorrect, agree)
	if outPath != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("wrong answers")
	}
	return nil
}
