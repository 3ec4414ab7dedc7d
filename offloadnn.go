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
// This package holds what its examples call; the solver tiers, the
// serving daemon, the cluster and the experiment drivers live under
// internal/ and cmd/.
package offloadnn

import (
	"context"

	"offloadnn/internal/core"
	"offloadnn/internal/radio"
	"offloadnn/internal/semoran"
	"offloadnn/internal/workload"
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
	// QualityLevel is one input-quality option q ∈ Q_τ of the DOT
	// formulation: fewer bits per image at an accuracy cost.
	QualityLevel = core.QualityLevel
	// Resources is the edge/radio capacity pool.
	Resources = core.Resources
	// Assignment is the per-task solver output: path, admission ratio z,
	// and RB allocation r.
	Assignment = core.Assignment
	// Solution is a solved instance with cost breakdown.
	Solution = core.Solution
	// Tree is the weighted-tree model of the DOT solution space.
	Tree = core.Tree
	// HeuristicConfig parameterizes OffloaDNN ablation variants.
	HeuristicConfig = core.HeuristicConfig
)

// FixedRate is the paper's constant-rate radio capacity model.
type FixedRate = radio.FixedRate

// Baseline types.
type (
	// SEMORANConfig parameterizes the SEM-O-RAN baseline.
	SEMORANConfig = semoran.Config
	// SEMORANReport is the baseline's solution.
	SEMORANReport = semoran.Report
)

// Load is the large-scenario request-rate level.
type Load = workload.Load

// LoadMedium is the Table-IV large scenario's medium request-rate level.
const LoadMedium = workload.LoadMedium

// SolveOption configures a Solve call.
type SolveOption func(*core.SolverSpec)

// WithHeuristic applies ablation knobs (clique ordering, binary
// admission) to the heuristic.
func WithHeuristic(cfg HeuristicConfig) SolveOption {
	return func(s *core.SolverSpec) { s.Heuristic = cfg }
}

// Solve solves a DOT instance with the OffloaDNN heuristic; ctx bounds
// the solve.
func Solve(ctx context.Context, in *Instance, opts ...SolveOption) (*Solution, error) {
	var spec core.SolverSpec
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

// LargeScenario builds the paper's Table-IV large-scale instance: 20
// tasks, 125 DNNs × 10 paths, at the given request-rate load.
func LargeScenario(load Load) (*Instance, error) { return workload.LargeScenario(load) }

// PaperCapacity returns the Table-IV fixed per-RB rate (0.35 Mb/s).
func PaperCapacity() FixedRate { return radio.PaperRate() }

// BuildTree constructs the weighted-tree model of an instance's solution
// space (cliques per task, sorted by inference compute time).
func BuildTree(in *Instance) (*Tree, error) { return core.BuildTree(in) }
