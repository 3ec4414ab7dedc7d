// Package edge is the Colosseum-substitute emulation environment: an
// OffloaDNN controller implementing the Fig. 4 workflow (task admission →
// DOT solving → slice and compute allocation → DNN-block deployment →
// rate notification) and a discrete-event emulator that drives UE traffic
// through radio slices and the edge compute queue to measure end-to-end
// task latency over time (Fig. 11).
package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/radio"
)

// ErrDeploy reports a deployment failure.
var ErrDeploy = errors.New("edge: deployment failed")

// Deployment is the outcome of one admission round: the DOT solution plus
// the configured radio slices and deployed DNN blocks.
type Deployment struct {
	// Solution is the solver output the controller acted on.
	Solution *core.Solution
	// Slices is the vRAN slice allocation, one slice per admitted task.
	Slices *radio.SliceAllocator
	// ActiveBlocks are the deployed DNN blocks, sorted by ID.
	ActiveBlocks []string
	// MemoryUsedGB is the VRAM consumed by the deployed blocks.
	MemoryUsedGB float64
	// AdmittedRates maps task ID to its notified admission rate z·λ.
	AdmittedRates map[string]float64
	// LatencyBounds maps each admitted task ID to its plan-time latency
	// bound L_τ (core.Task.MaxLatency) — the budget the deadline-aware
	// serving runtime derives per-request deadlines from. Zero entries
	// (tasks registered without a bound) mean no deadline.
	LatencyBounds map[string]time.Duration
}

// Controller is the OffloaDNN controller of Fig. 4. It owns the resource
// pools and runs the DOT solver on admission requests.
//
// Concurrency contract: Admit and Deploy are safe for concurrent use —
// admission rounds serialize on an internal mutex, so two rounds can
// never interleave their solve/slice/deploy steps.
type Controller struct {
	res core.Resources
	// mu serializes admission rounds.
	mu sync.Mutex
	// Faults optionally arms the controller's failure points
	// (faultinject.PointDeployError). Nil (the default) disarms them.
	// Set before sharing the controller across goroutines.
	Faults *faultinject.Injector
}

// NewController constructs a controller over the given resource pools.
func NewController(res core.Resources) *Controller {
	return &Controller{res: res}
}

// Admit runs one admission round (steps 1–6 of the Fig. 4 workflow): it
// assembles the DOT instance from the requests and block catalog, solves
// it, allocates the radio slices, deploys the selected blocks and returns
// the admitted rates for notification to the UEs. Rounds serialize: a
// concurrent Admit blocks until the in-flight round finishes.
func (c *Controller) Admit(tasks []core.Task, blocks map[string]core.BlockSpec, alpha float64) (*Deployment, error) {
	return c.AdmitCtx(context.Background(), tasks, blocks, alpha)
}

// AdmitCtx is Admit with a context bounding the solve step: the serial
// OffloaDNN heuristic checks ctx between tree layers and inside the
// allocation loop, so a timed-out solve is canceled and AdmitCtx returns
// the context's error. A panic inside the solver is recovered into an
// error, so a broken solve can never kill the caller's goroutine.
func (c *Controller) AdmitCtx(ctx context.Context, tasks []core.Task, blocks map[string]core.BlockSpec, alpha float64) (*Deployment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := &core.Instance{Tasks: tasks, Blocks: blocks, Res: c.res, Alpha: alpha}
	sol, err := solve(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("%w: solver: %w", ErrDeploy, err)
	}
	return c.deployLocked(in, sol)
}

// solve runs the heuristic under ctx, turning a solver panic into an
// error.
func solve(ctx context.Context, in *core.Instance) (sol *core.Solution, err error) {
	defer func() {
		if p := recover(); p != nil {
			sol, err = nil, fmt.Errorf("solver panic: %v", p)
		}
	}()
	return core.SolveSpec(ctx, in, core.SolverSpec{Tier: core.TierHeuristic})
}

// Deploy runs steps 3–6 of the workflow for a solution produced outside
// the controller (the serving daemon's incremental SolverSession): it
// checks the solution against the instance, allocates the radio slices,
// and assembles the deployment. Rounds serialize with Admit.
func (c *Controller) Deploy(in *core.Instance, sol *core.Solution) (*Deployment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deployLocked(in, sol)
}

// deployLocked checks, slices, and packages a solution; c.mu must be held.
func (c *Controller) deployLocked(in *core.Instance, sol *core.Solution) (*Deployment, error) {
	if err := c.Faults.Hit(context.Background(), faultinject.PointDeployError); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDeploy, err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		return nil, fmt.Errorf("%w: solution check: %w", ErrDeploy, err)
	}

	slices := radio.NewSliceAllocator(c.res.RBs)
	rates := make(map[string]float64)
	bounds := make(map[string]time.Duration)
	for i, a := range sol.Assignments {
		if !a.Admitted() {
			continue
		}
		if err := slices.AllocateShared(a.TaskID, a.RBs, a.Z); err != nil {
			return nil, fmt.Errorf("%w: slice for %s: %v", ErrDeploy, a.TaskID, err)
		}
		rates[a.TaskID] = a.Z * in.Tasks[i].Rate
		bounds[a.TaskID] = in.Tasks[i].MaxLatency
	}
	return &Deployment{
		Solution:      sol,
		Slices:        slices,
		ActiveBlocks:  sol.Breakdown.ActiveBlocks,
		MemoryUsedGB:  sol.Breakdown.MemoryGB,
		AdmittedRates: rates,
		LatencyBounds: bounds,
	}, nil
}
