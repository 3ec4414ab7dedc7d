// Package offloadnn is the public API of the OffloaDNN reproduction: a
// framework for scalable offloading of computer-vision DNN inference
// tasks to an edge server, reproducing "OffloaDNN: Shaping DNNs for
// Scalable Offloading of Computer Vision Tasks at the Edge" (ICDCS 2024).
//
// The framework jointly decides (i) which offloaded tasks to admit and at
// what fraction of their request rate, (ii) which dynamic DNN structure —
// a path of shareable, fine-tunable, prunable layer-blocks — serves each
// task, and (iii) how many radio resource blocks each task's slice gets,
// minimizing the DOT objective under memory, compute, radio, accuracy and
// latency constraints.
//
// Basic use:
//
//	in, _ := offloadnn.SmallScenario(5)        // or build an Instance by hand
//	sol, _ := offloadnn.Solve(ctx, in)         // the OffloaDNN heuristic
//	for _, a := range sol.Assignments { ... }  // per-task z, path, RBs
//
// Solve takes functional options selecting a solver tier:
//
//	offloadnn.Solve(ctx, in)                                  // auto: the exact heuristic
//	offloadnn.Solve(ctx, in, offloadnn.WithTier(offloadnn.TierOptimal))
//	offloadnn.Solve(ctx, in, offloadnn.WithTier(offloadnn.TierApprox))
//
// The exhaustive benchmark solver, the SEM-O-RAN baseline, the edge
// emulator and the experiment drivers for every figure and table of the
// paper are re-exported below.
package offloadnn

import (
	"context"

	"offloadnn/internal/core"
	"offloadnn/internal/edge"
	"offloadnn/internal/experiments"
	"offloadnn/internal/radio"
	"offloadnn/internal/semoran"
	"offloadnn/internal/workload"
)

// Sentinel errors of the solver layer. Match them with errors.Is: every
// infeasibility reported by Solve, Check or a SolverSession
// wraps ErrInfeasible; the two named causes additionally identify why.
var (
	// ErrInfeasible is the root of the infeasibility hierarchy: the
	// instance admits no solution, or a candidate violates a constraint.
	ErrInfeasible = core.ErrInfeasible
	// ErrNoFeasiblePath reports that some task has no (path × quality)
	// decision surviving the memory walk — wraps ErrInfeasible.
	ErrNoFeasiblePath = core.ErrNoFeasiblePath
	// ErrOverCapacity reports a memory/compute/radio capacity violation
	// found by Check — wraps ErrInfeasible.
	ErrOverCapacity = core.ErrOverCapacity
)

// Core DOT problem types.
type (
	// Instance is a complete DOT problem: tasks, block catalog, resource
	// pools, and the admission/resource trade-off weight α.
	Instance = core.Instance
	// Task is an inference task with priority, rate, accuracy and
	// latency requirements, input size and candidate paths.
	Task = core.Task
	// BlockSpec is an experimentally characterized DNN layer-block.
	BlockSpec = core.BlockSpec
	// PathSpec is a candidate execution: a block sequence with attained
	// accuracy.
	PathSpec = core.PathSpec
	// Resources is the edge/radio capacity pool.
	Resources = core.Resources
	// Assignment is the per-task solver output: path, admission ratio z,
	// and RB allocation r.
	Assignment = core.Assignment
	// Solution is a solved instance with cost breakdown.
	Solution = core.Solution
	// Breakdown decomposes a solution's objective and resource usage.
	Breakdown = core.Breakdown
	// OptimalStats reports the exhaustive solver's search effort.
	OptimalStats = core.OptimalStats
	// Tree is the weighted-tree model of the DOT solution space.
	Tree = core.Tree
)

// Radio substrate types.
type (
	// CapacityModel maps SNR to per-RB throughput B(σ).
	CapacityModel = radio.CapacityModel
	// FixedRate is the paper's constant-rate capacity model.
	FixedRate = radio.FixedRate
	// CQITable is the LTE CQI-based capacity model.
	CQITable = radio.CQITable
)

// Edge emulation types.
type (
	// Controller implements the Fig. 4 admission workflow.
	Controller = edge.Controller
	// Deployment is an admission round's outcome.
	Deployment = edge.Deployment
	// Emulator drives admitted tasks through radio and compute to
	// measure end-to-end latency (the Colosseum-substitute experiment).
	Emulator = edge.Emulator
	// EmulatorConfig tunes an emulation run.
	EmulatorConfig = edge.EmulatorConfig
)

// Baseline types.
type (
	// SEMORANConfig parameterizes the SEM-O-RAN baseline.
	SEMORANConfig = semoran.Config
	// SEMORANReport is the baseline's solution.
	SEMORANReport = semoran.Report
)

// Load is the large-scenario request-rate level.
type Load = workload.Load

// Load levels of the Table-IV large scenario.
const (
	LoadLow    = workload.LoadLow
	LoadMedium = workload.LoadMedium
	LoadHigh   = workload.LoadHigh
)

// Solver tiers behind the unified Solve API.
type (
	// Tier identifies a solver tier: the exact OffloaDNN heuristic, the
	// exhaustive optimal search, or the approximate admission tier.
	Tier = core.Tier
	// SolverSpec is the resolved configuration of a Solve call: tier
	// and heuristic ablation knobs.
	SolverSpec = core.SolverSpec
)

// Solver tiers for WithTier.
const (
	// TierAuto picks for you: Solve runs the exact heuristic at every
	// size; the serving daemon and the cluster placement, which re-plan
	// on every change, run TierApprox from 512 tasks.
	TierAuto = core.TierAuto
	// TierHeuristic is the polynomial-time OffloaDNN heuristic.
	TierHeuristic = core.TierHeuristic
	// TierOptimal is the exhaustive (exponential) benchmark solver.
	TierOptimal = core.TierOptimal
	// TierApprox is the approximate admission tier: score-based path
	// ranking with greedy budget packing — linear time, bounded regret.
	TierApprox = core.TierApprox
)

// SolveOption configures a Solve call.
type SolveOption func(*SolverSpec)

// WithTier selects the solver tier (default TierAuto).
func WithTier(t Tier) SolveOption { return func(s *SolverSpec) { s.Tier = t } }

// WithHeuristic applies ablation knobs (clique ordering, binary
// admission) to the heuristic tier.
func WithHeuristic(cfg HeuristicConfig) SolveOption {
	return func(s *SolverSpec) { s.Heuristic = cfg }
}

// Solve solves a DOT instance. It is the single solver entry point:
// options select the tier (exact heuristic, exhaustive optimal,
// approximate admission), the default is TierAuto — the exact heuristic
// — and ctx bounds the solve. The returned Solution records the tier that
// produced it, and Solution.Stats carries the search statistics of
// optimal-tier solves.
func Solve(ctx context.Context, in *Instance, opts ...SolveOption) (*Solution, error) {
	var spec SolverSpec
	for _, o := range opts {
		o(&spec)
	}
	return core.SolveSpec(ctx, in, spec)
}

// SolveSEMORAN runs the SEM-O-RAN baseline: binary admission maximizing
// total task value, full unshared DNNs, semantic input compression.
func SolveSEMORAN(in *Instance, cfg SEMORANConfig) (*SEMORANReport, error) {
	return semoran.Solve(in, cfg)
}

// DefaultSEMORANConfig returns the baseline's default compression ladder.
func DefaultSEMORANConfig() SEMORANConfig { return semoran.DefaultConfig() }

// Check verifies every DOT constraint for a set of assignments.
func Check(in *Instance, assignments []Assignment) error { return in.Check(assignments) }

// SmallScenario builds the paper's Table-IV small-scale instance with
// 1..5 tasks (3 DNNs × 5 paths per task).
func SmallScenario(tasks int) (*Instance, error) { return workload.SmallScenario(tasks) }

// ScaleScenario builds a T-task instance for the solver-scale
// experiments (1k–10k tasks): the small catalog's path grid per task
// with deterministically jittered request-side fields and a resource
// pool growing linearly with T, so contention stays meaningful at every
// scale.
func ScaleScenario(tasks int) (*Instance, error) { return workload.ScaleScenario(tasks) }

// LargeScenario builds the paper's Table-IV large-scale instance: 20
// tasks, 125 DNNs × 10 paths, at the given request-rate load.
func LargeScenario(load Load) (*Instance, error) { return workload.LargeScenario(load) }

// PaperCapacity returns the Table-IV fixed per-RB rate (0.35 Mb/s).
func PaperCapacity() FixedRate { return radio.PaperRate() }

// NewController builds an edge controller over the given resource pools.
func NewController(res Resources) *Controller { return edge.NewController(res) }

// NewEmulator binds a deployment to an emulation configuration.
func NewEmulator(in *Instance, dep *Deployment, cfg EmulatorConfig) (*Emulator, error) {
	return edge.NewEmulator(in, dep, cfg)
}

// DefaultEmulatorConfig returns a 20-second emulation with realistic
// jitter.
func DefaultEmulatorConfig() EmulatorConfig { return edge.DefaultEmulatorConfig() }

// Experiment is a regenerator for one of the paper's tables or figures.
type Experiment = experiments.Experiment

// ExperimentOptions tunes experiment execution.
type ExperimentOptions = experiments.Options

// Experiments returns the full per-figure/per-table experiment suite.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment (e.g., "fig9").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// Quality and ablation extensions.
type (
	// QualityLevel is one input-quality option q ∈ Q_τ of the DOT
	// formulation: fewer bits per image at an accuracy cost.
	QualityLevel = core.QualityLevel
	// HeuristicConfig parameterizes OffloaDNN ablation variants.
	HeuristicConfig = core.HeuristicConfig
	// CliqueOrder selects the clique vertex ordering.
	CliqueOrder = core.CliqueOrder
)

// Clique orderings for WithHeuristic.
const (
	OrderCompute  = core.OrderCompute
	OrderMemory   = core.OrderMemory
	OrderAccuracy = core.OrderAccuracy
	OrderNone     = core.OrderNone
)

// PrivatizeBlocks returns a copy of the instance with all cross-task
// block sharing disabled (the sharing ablation).
func PrivatizeBlocks(in *Instance) *Instance { return core.PrivatizeBlocks(in) }

// HeterogeneousScenario builds the two-family extension of the large
// scenario (ResNet-18 plus a MobileNetV2-class lite catalog).
func HeterogeneousScenario(load Load) (*Instance, error) {
	return workload.HeterogeneousScenario(load)
}

// Serving-churn types.
type (
	// ChurnEvent is one task arrival/departure in a serving timeline.
	ChurnEvent = workload.ChurnEvent
	// ChurnParams parameterizes ChurnTimeline.
	ChurnParams = workload.ChurnParams
)

// ChurnTimeline derives a deterministic register/deregister schedule
// over the Table-IV small-scenario tasks for driving the edgeserve daemon.
func ChurnTimeline(p ChurnParams) ([]ChurnEvent, error) { return workload.ChurnTimeline(p) }

// Incremental solving types.
type (
	// SolverSession is an incremental solver for serving loops: it caches
	// the weighted tree across epochs and consumes task deltas instead of
	// whole instances. Resolve produces the same solution Solve computes
	// from scratch on the equivalent instance.
	SolverSession = core.SolverSession
	// TaskDelta is the churn between two epochs: task adds, removals,
	// rate updates, and new blocks.
	TaskDelta = core.TaskDelta
	// SessionStats counts a session's epochs and clique-cache hits/misses.
	SessionStats = core.SessionStats
)

// NewSolverSession validates the instance and prepares an incremental
// session over it. Call Resolve(ctx, delta) once per epoch; a zero delta
// re-solves the unchanged task set.
func NewSolverSession(in *Instance) (*SolverSession, error) {
	return core.NewSolverSession(in)
}

// BuildTree constructs the weighted-tree model of an instance's solution
// space (cliques per task, sorted by inference compute time).
func BuildTree(in *Instance) (*Tree, error) { return core.BuildTree(in) }
