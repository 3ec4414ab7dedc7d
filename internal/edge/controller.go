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
)

// ErrDeploy reports a deployment failure.
var ErrDeploy = errors.New("edge: deployment failed")

// Deployment is the outcome of one admission round: the checked DOT
// solution, whose assignments carry each task's radio slice r and whose
// breakdown lists the deployed blocks, plus what the UEs are notified.
type Deployment struct {
	// Solution is the solver output the controller acted on.
	Solution *core.Solution
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
// never interleave their solve/deploy steps.
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
// it (the solution's RB allocation is the slicing), deploys the selected
// blocks and returns the admitted rates for notification to the UEs.
// Rounds serialize: a concurrent Admit blocks until the in-flight round
// finishes.
func (c *Controller) Admit(tasks []core.Task, blocks map[string]core.BlockSpec, alpha float64) (*Deployment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := &core.Instance{Tasks: tasks, Blocks: blocks, Res: c.res, Alpha: alpha}
	sol, err := core.SolveSpec(context.Background(), in, core.SolverSpec{Tier: core.TierHeuristic})
	if err != nil {
		return nil, fmt.Errorf("%w: solver: %w", ErrDeploy, err)
	}
	return c.deployLocked(in, sol)
}

// Deploy runs steps 3–6 of the workflow for a solution produced outside
// the controller (the serving daemon's incremental SolverSession): it
// checks the solution against the instance, whose Check is the one
// enforcement of the radio budget (1d) among the DOT constraints, and
// assembles the deployment. Rounds serialize with Admit.
func (c *Controller) Deploy(in *core.Instance, sol *core.Solution) (*Deployment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deployLocked(in, sol)
}

// deployLocked checks and packages a solution; c.mu must be held.
func (c *Controller) deployLocked(in *core.Instance, sol *core.Solution) (*Deployment, error) {
	if err := c.Faults.Hit(context.Background(), faultinject.PointDeployError); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDeploy, err)
	}
	if err := in.Check(sol.Assignments); err != nil {
		return nil, fmt.Errorf("%w: solution check: %w", ErrDeploy, err)
	}
	rates := make(map[string]float64)
	bounds := make(map[string]time.Duration)
	for i, a := range sol.Assignments {
		if !a.Admitted() {
			continue
		}
		rates[a.TaskID] = a.Z * in.Tasks[i].Rate
		bounds[a.TaskID] = in.Tasks[i].MaxLatency
	}
	return &Deployment{
		Solution:      sol,
		AdmittedRates: rates,
		LatencyBounds: bounds,
	}, nil
}
