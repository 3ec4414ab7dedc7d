// Package core implements the paper's contribution: the DOT (DNNs for
// scalable Offloading of Tasks) problem model, the weighted-tree search
// space, the per-branch convex allocator in (z, r), the exhaustive optimal
// solver, and the OffloaDNN first-branch heuristic.
//
// The model follows Sec. III of the paper. A task τ carries priority p_τ,
// request rate λ_τ, accuracy floor A_τ, latency ceiling L_τ, input size
// β(q_τ) and channel quality σ_τ. Candidate executions are paths π —
// sequences of layer-blocks s with experimentally characterized inference
// compute time c(s), memory µ(s) and training cost ct(s). Decision
// variables are the admission ratios z_τ ∈ [0,1], the path selection
// (x, y), and the RB allocations r_τ.
package core

import (
	"errors"
	"fmt"
	"time"

	"offloadnn/internal/radio"
)

// errModel reports an invalid instance.
var errModel = errors.New("core: invalid DOT instance")

// ErrInfeasible reports that no feasible solution exists (e.g., the memory
// budget cannot hold any path of an admission-mandatory configuration).
var ErrInfeasible = errors.New("core: infeasible DOT instance")

// ErrNoFeasiblePath reports that the weighted-tree search exhausted every
// branch without finding one whose blocks fit the memory budget. It wraps
// ErrInfeasible, so errors.Is(err, ErrInfeasible) also holds.
var ErrNoFeasiblePath = fmt.Errorf("core: no feasible path [%w]", ErrInfeasible)

// ErrOverCapacity reports a violation of a resource-capacity constraint —
// memory (1b), compute (1c), radio (1d) or slice throughput (1e). It
// wraps ErrInfeasible, so errors.Is(err, ErrInfeasible) also holds.
var ErrOverCapacity = fmt.Errorf("core: resource capacity exceeded [%w]", ErrInfeasible)

// BlockSpec is the experimentally characterized layer-block s^d.
type BlockSpec struct {
	// ID uniquely identifies the block; paths referencing the same ID
	// share one deployment (memory and training charged once).
	ID string
	// ComputeSeconds is the per-inference compute time c(s).
	ComputeSeconds float64
	// MemoryGB is the deployed footprint µ(s).
	MemoryGB float64
	// TrainSeconds is the (fine-)training cost ct(s); zero for
	// pre-trained base blocks and for blocks already deployed at the edge
	// (the incremental scenario of Sec. III-B).
	TrainSeconds float64
}

// PathSpec is π^d_τ: one way to execute a task on DNN structure d.
type PathSpec struct {
	// ID identifies the path within its task's candidate set.
	ID string
	// DNN names the dynamic DNN structure d the path belongs to.
	DNN string
	// Blocks are the IDs of the blocks [s^d] composing the path, in
	// execution order.
	Blocks []string
	// Accuracy is the attained accuracy a_τ(q_τ, π) for the owning task's
	// quality level, characterized offline.
	Accuracy float64
}

// QualityLevel is one input-quality option q ∈ Q_τ: transmitting the task
// input at reduced quality shrinks β(q) at an accuracy cost.
type QualityLevel struct {
	// ID names the level (e.g., "q1080", "q720").
	ID string
	// Bits is β(q), the bits per offloaded image at this quality.
	Bits float64
	// AccuracyDelta is subtracted from the path accuracy a_τ(q, π).
	AccuracyDelta float64
}

// Task is an inference task τ requested for offloading.
type Task struct {
	// ID names the task.
	ID string
	// Priority p_τ ∈ [0,1].
	Priority float64
	// Rate λ_τ in requests per second.
	Rate float64
	// MinAccuracy is A_τ.
	MinAccuracy float64
	// MaxLatency is L_τ (end-to-end: network + processing).
	MaxLatency time.Duration
	// InputBits is β at full quality, the bits per offloaded image.
	InputBits float64
	// SNRdB is σ_τ, the average SNR of the devices issuing the task.
	SNRdB float64
	// Qualities are the optional reduced-quality levels Q_τ. The full
	// quality (InputBits, zero accuracy delta) is always available; an
	// empty slice means it is the only level, which is the Table-IV
	// evaluation setting.
	Qualities []QualityLevel
	// Paths are the candidate executions Π_τ = ∪_d Π^d_τ.
	Paths []PathSpec
}

// qualityOptions returns the task's quality ladder including the implicit
// full-quality level (first).
func (t *Task) qualityOptions() []QualityLevel {
	out := make([]QualityLevel, 0, len(t.Qualities)+1)
	out = append(out, QualityLevel{ID: "full", Bits: t.InputBits})
	out = append(out, t.Qualities...)
	return out
}

// Resources is the edge/radio capacity pool.
type Resources struct {
	// RBs is R, the radio resource blocks available.
	RBs int
	// ComputeSeconds is C: edge compute seconds available per second.
	ComputeSeconds float64
	// MemoryGB is M.
	MemoryGB float64
	// TrainBudgetSeconds is Ct, the normalizer of the training-cost term.
	TrainBudgetSeconds float64
	// Capacity maps SNR to per-RB throughput B(σ).
	Capacity radio.CapacityModel
	// Norm optionally overrides the capacities the objective's resource
	// terms are priced against, leaving the constraints (1b)–(1e) at the
	// pool's own budgets. A cluster node solving 1/n of a fleet's pool
	// sets Norm to the fleet-wide totals so each node prices an RB or a
	// compute-second exactly as the single-server objective would —
	// otherwise a half-capacity node sees doubled resource prices and
	// sheds low-priority tasks the fleet has room for. Nil (the default)
	// prices by the pool itself. Only RBs, ComputeSeconds and
	// TrainBudgetSeconds are read; a nested Norm is ignored.
	Norm *Resources
}

// Validate checks a pool against the DOT model: a capacity model, no
// negative budget, and a positive training budget, which normalizes the
// objective. Instance.Validate and a cluster member's registration apply
// this one rule.
func (r Resources) Validate() error {
	if r.Capacity == nil {
		return fmt.Errorf("%w: nil capacity model", errModel)
	}
	if r.RBs < 0 || r.ComputeSeconds < 0 || r.MemoryGB < 0 {
		return fmt.Errorf("%w: negative resource capacity", errModel)
	}
	if r.TrainBudgetSeconds <= 0 {
		return fmt.Errorf("%w: train budget must be positive (it normalizes the objective)", errModel)
	}
	return nil
}

// priceRBs returns the R the radio term is normalized by.
func (r Resources) priceRBs() int {
	if r.Norm != nil && r.Norm.RBs > 0 {
		return r.Norm.RBs
	}
	return r.RBs
}

// priceComputeSeconds returns the C the inference term is normalized by.
func (r Resources) priceComputeSeconds() float64 {
	if r.Norm != nil && r.Norm.ComputeSeconds > 0 {
		return r.Norm.ComputeSeconds
	}
	return r.ComputeSeconds
}

// priceTrainBudgetSeconds returns the Ct the training term is normalized by.
func (r Resources) priceTrainBudgetSeconds() float64 {
	if r.Norm != nil && r.Norm.TrainBudgetSeconds > 0 {
		return r.Norm.TrainBudgetSeconds
	}
	return r.TrainBudgetSeconds
}

// Instance is a complete DOT problem.
type Instance struct {
	// Tasks requested for admission, in any order (solvers process them
	// by descending priority).
	Tasks []Task
	// Blocks is the catalog of all blocks referenced by any path.
	Blocks map[string]BlockSpec
	// Res is the resource pool.
	Res Resources
	// Alpha weights admission against resource cost in the objective.
	Alpha float64
	// Predeployed marks blocks already active at the edge from earlier
	// admission rounds: their memory and training costs are zero for
	// this instance (incremental mode, Sec. III-B remark).
	Predeployed map[string]bool
}

// Validate checks structural consistency of the instance.
func (in *Instance) Validate() error {
	if len(in.Tasks) == 0 {
		return fmt.Errorf("%w: no tasks", errModel)
	}
	if in.Alpha < 0 || in.Alpha > 1 {
		return fmt.Errorf("%w: alpha %v outside [0,1]", errModel, in.Alpha)
	}
	if err := in.Res.Validate(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(in.Tasks))
	for i, t := range in.Tasks {
		if t.ID == "" {
			return fmt.Errorf("%w: task %d has empty ID", errModel, i)
		}
		if seen[t.ID] {
			return fmt.Errorf("%w: duplicate task ID %q", errModel, t.ID)
		}
		seen[t.ID] = true
		if err := in.validateTask(&t); err != nil {
			return err
		}
	}
	for id, b := range in.Blocks {
		if b.ID != id {
			return fmt.Errorf("%w: block map key %q does not match ID %q", errModel, id, b.ID)
		}
		if b.ComputeSeconds < 0 || b.MemoryGB < 0 || b.TrainSeconds < 0 {
			return fmt.Errorf("%w: block %s has negative cost", errModel, id)
		}
	}
	return nil
}

// validateTask checks one task's fields and path/block references against
// the instance catalog (the per-task half of Validate, also applied to
// tasks added to a SolverSession through a delta).
func (in *Instance) validateTask(t *Task) error {
	if t.Priority < 0 || t.Priority > 1 {
		return fmt.Errorf("%w: task %s priority %v outside [0,1]", errModel, t.ID, t.Priority)
	}
	if t.Rate <= 0 {
		return fmt.Errorf("%w: task %s rate %v must be positive", errModel, t.ID, t.Rate)
	}
	if t.MaxLatency <= 0 {
		return fmt.Errorf("%w: task %s latency bound %v must be positive", errModel, t.ID, t.MaxLatency)
	}
	if t.InputBits <= 0 {
		return fmt.Errorf("%w: task %s input bits %v must be positive", errModel, t.ID, t.InputBits)
	}
	for _, p := range t.Paths {
		if len(p.Blocks) == 0 {
			return fmt.Errorf("%w: task %s path %s has no blocks", errModel, t.ID, p.ID)
		}
		for _, b := range p.Blocks {
			if _, ok := in.Blocks[b]; !ok {
				return fmt.Errorf("%w: task %s path %s references unknown block %q", errModel, t.ID, p.ID, b)
			}
		}
	}
	return nil
}

// PathCompute returns the processing component Σ c(s) of a path.
func (in *Instance) PathCompute(p *PathSpec) float64 {
	t := 0.0
	for _, id := range p.Blocks {
		t += in.Blocks[id].ComputeSeconds
	}
	return t
}

// BlockMemoryGB returns µ(s), honoring predeployment.
func (in *Instance) BlockMemoryGB(id string) float64 {
	if in.Predeployed[id] {
		return 0
	}
	return in.Blocks[id].MemoryGB
}

// blockTrainSeconds returns ct(s), honoring predeployment.
func (in *Instance) blockTrainSeconds(id string) float64 {
	if in.Predeployed[id] {
		return 0
	}
	return in.Blocks[id].TrainSeconds
}

// Assignment is the per-task part of a solution.
type Assignment struct {
	// TaskID names the task.
	TaskID string
	// Path is the selected execution (nil when the task is rejected).
	Path *PathSpec
	// Quality is the selected input-quality level; nil means full
	// quality (the task's InputBits).
	Quality *QualityLevel
	// Z is the admitted fraction of the request rate.
	Z float64
	// RBs is r_τ, the slice size allocated to the task.
	RBs int
}

// Bits returns β(q) for the assignment's quality level, defaulting to the
// task's full-quality input size.
func (a Assignment) Bits(task *Task) float64 {
	if a.Quality != nil {
		return a.Quality.Bits
	}
	return task.InputBits
}

// Accuracy returns a_τ(q, π): the path accuracy minus the quality
// penalty. It returns 0 when no path is selected.
func (a Assignment) Accuracy() float64 {
	if a.Path == nil {
		return 0
	}
	acc := a.Path.Accuracy
	if a.Quality != nil {
		acc -= a.Quality.AccuracyDelta
	}
	return acc
}

// Admitted reports whether any fraction of the task was admitted.
func (a Assignment) Admitted() bool { return a.Z > 0 && a.Path != nil }

// Solution is a complete DOT assignment with its cost breakdown.
type Solution struct {
	// Assignments are parallel to Instance.Tasks.
	Assignments []Assignment
	// Cost is the DOT objective (1a).
	Cost float64
	// Breakdown of the objective and resource usage.
	Breakdown Breakdown
	// Runtime of the solver call.
	Runtime time.Duration
	// Tier records which solver produced the solution (heuristic,
	// optimal, approx). Zero (tierAuto) on solutions from custom solver
	// callbacks that predate the tiered API.
	Tier Tier
	// stats carries search statistics for the optimal tier, nil
	// otherwise.
	stats *OptimalStats
}

// Breakdown decomposes the objective value and records resource usage —
// the quantities Figs. 7, 8 and 10 plot.
type Breakdown struct {
	// AdmissionTerm is Σ α(1−z)p.
	AdmissionTerm float64
	// TrainTerm is (1−α)·Σ_{active s} ct(s)/Ct.
	TrainTerm float64
	// RadioTerm is (1−α)·Σ zλ r/R.
	RadioTerm float64
	// InferTerm is (1−α)·Σ zλ c(π)/C.
	InferTerm float64
	// WeightedAdmission is Σ z·p (Fig. 8 left metric).
	WeightedAdmission float64
	// MemoryGB is the total deployed memory of active blocks.
	MemoryGB float64
	// RBsAllocated is Σ z·r (constraint (1d) usage).
	RBsAllocated float64
	// ComputeUsage is Σ zλ c(π) in seconds per second (constraint (1c)).
	ComputeUsage float64
	// TrainSeconds is Σ_{active s} ct(s).
	TrainSeconds float64
	// ActiveBlocks are the distinct blocks used by admitted tasks.
	ActiveBlocks []string
	// AdmittedTasks counts tasks with z > 0.
	AdmittedTasks int
	// fullyAdmittedTasks counts tasks with z ≈ 1.
	fullyAdmittedTasks int
}
