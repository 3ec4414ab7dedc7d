package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"offloadnn/internal/tensor"
)

// setupStart anchors setup_s: process start → first answer or epoch. A
// run that first times set-up children moves the anchor to when the last
// of them has exited.
var setupStart = time.Now()

// A run starts extra processes only to time their set-up, in two batches,
// one before its own set-up and one after its measured pass, so that
// setup_s is read off many process starts at two moments fifteen seconds
// apart. A batch is at least minSetupChildren, then more while they have
// taken under setupChildBudget in all, up to maxSetupChildren: a set-up of
// tens of milliseconds gets seventeen samples, one of a second gets five.
// setup_s is their best decile (see bestShare), not their median: a cold
// start is page faults and first touches, which a busy host slows more
// than it slows steady work — over two ten-seed sets of one binary the
// median of seven starts moved by 31 % on frames-overload, whose
// throughput moved by 11 %.
const (
	minSetupChildren = 2
	maxSetupChildren = 8
	setupChildBudget = 1500 * time.Millisecond
)

// warmup precedes every data-plane pass and is discarded: scratch
// pools fill, the batch-window EWMA settles, the token buckets start
// spending their one-second burst.
const warmup = 2 * time.Second

// runCtx is one run of one workload.
type runCtx struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	outDir    string

	// setups are the set-up samples in seconds: the first batch of child
	// processes, this process, the second batch.
	setups []float64

	digest    string
	attempted int
	failed    int
	wrong     int
	invalid   string // non-empty: the run must not be used
	values    map[string]float64
	notes     []string
}

func (rc *runCtx) rng() *rand.Rand { return rand.New(rand.NewSource(rc.seed)) }

func (rc *runCtx) window() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

func (rc *runCtx) set(name string, v float64) { rc.values[name] = v }

func (rc *runCtx) note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// setupDone marks the end of set-up: the first answer or epoch is back,
// coldEpoch after the resolve (or placement) that published it began. A
// -setup-only child prints its set-up time and exits here.
func (rc *runCtx) setupDone(coldEpoch time.Duration) {
	setup := time.Since(setupStart).Seconds()
	if rc.setupOnly {
		fmt.Println(setup)
		os.Exit(0)
	}
	rc.setups = append(rc.setups, setup)
	rc.set("serve.cold_epoch_ms", ms(coldEpoch))
}

// timeSetupChildren runs one batch of the workload's set-up in fresh
// processes, one after the other, so their heaps never count toward this
// process's memory.
func (rc *runCtx) timeSetupChildren() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < maxSetupChildren && (i < minSetupChildren || time.Since(start) < setupChildBudget); i++ {
		cmd := osexec.Command(self, "-workload", rc.workload, "-seed", strconv.FormatInt(rc.seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup child: %w", err)
		}
		setup, err := strconv.ParseFloat(lastLine(string(out)), 64)
		if err != nil {
			return fmt.Errorf("setup child output %q: %w", out, err)
		}
		rc.setups = append(rc.setups, setup)
	}
	return nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// procStatusMB reads a kB field ("VmRSS", "VmHWM") of this process's
// /proc/self/status, in MB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status: %v", field, sc.Err())
}

// measureRSS reports rss_mb: the resident set once the measured phase is
// over and its garbage has been collected and returned — what the
// deployment holds (models, queues, caches, and the benchmark's own
// inputs). The peak (VmHWM) is printed beside it but is not a metric:
// it adds up to a heap's worth of uncollected garbage, depending on
// where in the collector's cycle the run happened to end.
func (rc *runCtx) measureRSS() error {
	debug.FreeOSMemory() // forces a collection first
	rss, err := procStatusMB("VmRSS")
	if err != nil {
		return err
	}
	peak, err := procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	rc.set("rss_mb", rss)
	rc.note("memory: resident after collection %.1f MB, peak (VmHWM) %.1f MB", rss, peak)
	return nil
}

// runMeta identifies the machine and build a result came from.
type runMeta struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	SIMD        bool   `json:"tensor_simd"`
	Parallelism int    `json:"tensor_parallelism"`
}

func collectMeta() runMeta {
	rev := "unknown" // the driver's checkout is not a git repository
	if out, err := osexec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return runMeta{
		GitRevision: rev,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SIMD:        tensor.SIMDEnabled(),
		Parallelism: tensor.Parallelism(),
	}
}

// metricValue is one entry of the result line's "metrics".
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload executes one run and prints its report; the result line
// comes last.
func runWorkload(rc *runCtx) error {
	def := findWorkload(rc.workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", rc.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rc.values = make(map[string]float64)
	timeSetup := !rc.trace && !rc.setupOnly
	if timeSetup {
		if err := rc.timeSetupChildren(); err != nil {
			return err
		}
		setupStart = time.Now()
	}
	if err := def.run(rc); err != nil {
		return err
	}
	if timeSetup {
		if err := rc.timeSetupChildren(); err != nil {
			return err
		}
	}
	res := resultLine{
		Correct:   rc.wrong == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   make(map[string]metricValue),
	}
	if rc.trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{rc.values[d.Name], d.Unit}
		}
	} else {
		rc.set("setup_s", bestLow(rc.setups))
		rc.note("set-up: n=%d, best-decile %.4g s, median %.4g s (diagnostic), samples %.4g", len(rc.setups), bestLow(rc.setups), median(rc.setups), rc.setups)
		for _, d := range endToEnd {
			v, ok := rc.values[d.Name]
			if !ok || v == 0 {
				return fmt.Errorf("%s: end-to-end metric %s not measured", rc.workload, d.Name)
			}
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	meta, _ := json.Marshal(collectMeta())
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", rc.workload, rc.seed, rc.seconds, rc.trace)
	fmt.Printf("inputs sha256 %s\n", rc.digest)
	fmt.Printf("meta %s\n", meta)
	for _, n := range rc.notes {
		fmt.Println(n)
	}
	printMetrics(res.Metrics, rc.trace)
	if rc.invalid != "" {
		return fmt.Errorf("%s: run invalid: %s", rc.workload, rc.invalid)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics lists the metrics in table order, by name and unit.
func printMetrics(m map[string]metricValue, layer bool) {
	if layer {
		for _, d := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
		}
		return
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-32s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}
