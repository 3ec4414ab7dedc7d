package core

import (
	"context"
	"fmt"
	"time"
)

// TaskDelta describes the churn applied to a SolverSession between two
// epochs: tasks to add, tasks to remove, request-rate updates, and any
// new blocks the added tasks' paths reference. The zero value re-solves
// the unchanged task set.
type TaskDelta struct {
	// Add are tasks to register, appended to the session's task list in
	// order. Their paths may only reference blocks already in the session
	// catalog or carried in AddBlocks.
	Add []Task
	// AddBlocks merges block specs into the session catalog. Re-supplying
	// an existing block with an identical spec is a no-op; supplying a
	// different spec updates the catalog and invalidates exactly the
	// cached cliques that reference the block.
	AddBlocks map[string]BlockSpec
	// Remove lists task IDs to withdraw. Removing an unknown ID is an
	// error, so callers catch registry/session drift immediately.
	Remove []string
	// Rate maps task ID → new request rate λ. The rate enters only the
	// allocation subproblem, so a rate-only delta invalidates no cached
	// cliques at all.
	Rate map[string]float64
}

// SolverSession is an incremental OffloaDNN solver for the serving loop's
// hot path: it caches the layered weighted tree across epochs, feeds on
// task deltas instead of whole instances, and invalidates only the
// cliques a delta touches.
//
// A session is not safe for concurrent use; serialize Resolve calls (the
// serve resolver does so under its solve mutex).
type SolverSession struct {
	inst  *Instance
	index map[string]int // task ID → position in inst.Tasks
	cache *treeCache
}

// NewSolverSession validates the instance and prepares an incremental
// session over a private copy of its task list and block catalog. The
// task structs are copied; their Paths/Qualities backing arrays are
// shared and must not be mutated by the caller afterwards. No solve
// happens until the first Resolve.
func NewSolverSession(in *Instance) (*SolverSession, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{
		Tasks:  append([]Task(nil), in.Tasks...),
		Blocks: make(map[string]BlockSpec, len(in.Blocks)),
		Res:    in.Res,
		Alpha:  in.Alpha,
	}
	for id, b := range in.Blocks {
		inst.Blocks[id] = b
	}
	if in.Predeployed != nil {
		inst.Predeployed = make(map[string]bool, len(in.Predeployed))
		for id, v := range in.Predeployed {
			inst.Predeployed[id] = v
		}
	}
	s := &SolverSession{
		inst:  inst,
		index: make(map[string]int, len(inst.Tasks)),
		cache: newTreeCache(),
	}
	s.reindex()
	return s, nil
}

// reindex rebuilds the ID → position map after a membership change.
func (s *SolverSession) reindex() {
	clear(s.index)
	for i := range s.inst.Tasks {
		s.index[s.inst.Tasks[i].ID] = i
	}
}

// Tasks returns a copy of the session's live task list, in the order the
// solver sees it (registration order; ties in priority break by it).
func (s *SolverSession) Tasks() []Task {
	return append([]Task(nil), s.inst.Tasks...)
}

// Instance returns the session's live instance for read-only use (e.g.,
// checking a solution or building a deployment). Mutating it corrupts
// the clique cache.
func (s *SolverSession) Instance() *Instance { return s.inst }

// apply folds a delta into the session state, invalidating exactly the
// cached cliques the delta touches. It validates before mutating, so a
// rejected delta leaves the session unchanged.
func (s *SolverSession) apply(delta TaskDelta) error {
	// Validate removals and rate updates against the live set.
	removed := make(map[string]bool, len(delta.Remove))
	for _, id := range delta.Remove {
		if _, ok := s.index[id]; !ok {
			return fmt.Errorf("%w: remove of unknown task %q", errModel, id)
		}
		if removed[id] {
			return fmt.Errorf("%w: task %q removed twice in one delta", errModel, id)
		}
		removed[id] = true
	}
	addIDs := make(map[string]bool, len(delta.Add))
	for i := range delta.Add {
		t := &delta.Add[i]
		if t.ID == "" {
			return fmt.Errorf("%w: added task has empty ID", errModel)
		}
		if _, live := s.index[t.ID]; live && !removed[t.ID] {
			return fmt.Errorf("%w: added task %q already registered", errModel, t.ID)
		}
		if addIDs[t.ID] {
			return fmt.Errorf("%w: task %q added twice in one delta", errModel, t.ID)
		}
		addIDs[t.ID] = true
	}
	for id, rate := range delta.Rate {
		if _, ok := s.index[id]; (!ok || removed[id]) && !addIDs[id] {
			return fmt.Errorf("%w: rate update for unknown task %q", errModel, id)
		}
		if rate <= 0 {
			return fmt.Errorf("%w: task %s rate %v must be positive", errModel, id, rate)
		}
	}

	// Merge blocks, invalidating cliques referencing re-specified ones.
	for id, spec := range delta.AddBlocks {
		if spec.ID != id {
			return fmt.Errorf("%w: block map key %q does not match ID %q", errModel, id, spec.ID)
		}
		if spec.ComputeSeconds < 0 || spec.MemoryGB < 0 || spec.TrainSeconds < 0 {
			return fmt.Errorf("%w: block %s has negative cost", errModel, id)
		}
		if prev, ok := s.inst.Blocks[id]; ok {
			if prev == spec {
				continue
			}
			s.cache.invalidateBlock(id)
		}
		s.inst.Blocks[id] = spec
	}

	// Validate added tasks against the merged catalog (field ranges and
	// block references) before touching the task list.
	for i := range delta.Add {
		if err := s.inst.validateTask(&delta.Add[i]); err != nil {
			return err
		}
	}

	if len(removed) > 0 {
		kept := s.inst.Tasks[:0]
		for i := range s.inst.Tasks {
			if removed[s.inst.Tasks[i].ID] {
				continue
			}
			kept = append(kept, s.inst.Tasks[i])
		}
		s.inst.Tasks = kept
		for id := range removed {
			s.cache.invalidateTask(id)
		}
	}
	for i := range delta.Add {
		t := delta.Add[i]
		s.inst.Tasks = append(s.inst.Tasks, t)
		// A re-added ID must not inherit a stale clique from its
		// previous life.
		s.cache.invalidateTask(t.ID)
	}
	if len(removed) > 0 || len(delta.Add) > 0 {
		s.reindex()
	}
	for id, rate := range delta.Rate {
		// The cached clique survives: λ does not enter the tree.
		s.inst.Tasks[s.index[id]].Rate = rate
	}
	return nil
}

// Resolve folds the delta into the session and re-solves the OffloaDNN
// heuristic incrementally: layers are assembled from cached cliques
// (rebuilding only invalidated ones), the first-branch walk re-runs over
// them, and the per-branch convex allocation is solved afresh. The result
// is the same solution SolveOffloaDNN computes from scratch on the
// equivalent instance.
//
// On a delta validation error the session is unchanged; on a solver
// error the delta remains applied (the session tracks the registry, the
// caller keeps serving its previous epoch).
func (s *SolverSession) Resolve(ctx context.Context, delta TaskDelta) (*Solution, error) {
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := s.apply(delta); err != nil {
		return nil, err
	}
	if len(s.inst.Tasks) == 0 {
		return nil, fmt.Errorf("%w: no tasks", errModel)
	}

	// First-branch walk over cached cliques, in priority-layer order.
	order := priorityOrder(s.inst)
	assignments, err := firstBranch(ctx, s.inst, order, func(li int) []Vertex {
		return s.cache.cliqueFor(s.inst, order[li])
	})
	if err != nil {
		return nil, err
	}
	if err := s.inst.optimizeAllocation(ctx, assignments); err != nil {
		return nil, err
	}
	sol, err := s.inst.newSolution(assignments, time.Since(start))
	if err != nil {
		return nil, err
	}
	sol.Tier = TierHeuristic
	return sol, nil
}
