package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"offloadnn/internal/tensor"
)

// Vertex is one decision for a task: a feasible DNN path, or the implicit
// rejection decision (Path == nil, used when no path fits the remaining
// memory — the task then gets z = 0).
type Vertex struct {
	// Path is the candidate execution; nil marks the reject vertex.
	Path *PathSpec
	// Quality is the input-quality level paired with the path (nil =
	// full quality). Vertices enumerate (path × quality) combinations.
	Quality *QualityLevel
	// Compute caches Σ c(s) over the path (0 for reject).
	Compute float64
	// Train caches Σ ct(s) over the path's blocks (upper bound — sharing
	// may reduce the charged cost). Used only to break compute ties.
	Train float64
	// Memory caches Σ µ(s) over the path's blocks (upper bound).
	Memory float64
	// Bits caches β(q) of the vertex's quality level.
	Bits float64
}

// Reject reports whether this is the rejection decision.
func (v Vertex) Reject() bool { return v.Path == nil }

// Clique is the layer-t sibling group: all feasible decisions for one
// task, ordered by ascending inference compute time (the ordering that
// makes OffloaDNN's first-branch rule effective). The reject vertex is
// always last.
type Clique struct {
	// TaskIndex is the index of the task in Instance.Tasks.
	TaskIndex int
	// Vertices in left-to-right (ascending compute) order.
	Vertices []Vertex
}

// Tree is the weighted-tree model of the DOT solution space: one layer per
// task in descending priority order. The tree is represented implicitly —
// a layer's clique is replicated under every parent during traversal, with
// the branch state carrying the memory/training correlation.
type Tree struct {
	inst *Instance
	// Layers hold one clique per task, in traversal (priority) order.
	Layers []Clique
}

// BuildTree constructs the layered cliques: tasks sorted by descending
// priority (ties broken by instance order); per task, the vertices are the
// paths honoring the accuracy constraint (1f) and whose processing time
// alone does not already exceed the latency bound (1g), sorted by
// ascending compute time.
func BuildTree(in *Instance) (*Tree, error) {
	return buildTreeCtx(context.Background(), in)
}

// parallelTreeMin is the task count at which clique construction fans
// out over the tensor worker pool. Below it the per-task work does not
// amortize the pool handoff.
const parallelTreeMin = 256

// buildTreeCtx is BuildTree with cancellation checked between layers.
// At parallelTreeMin tasks and beyond the per-task cliques are built
// concurrently on the tensor worker pool: each layer's vertices depend
// only on that task's fields and the shared (read-only) block catalog,
// and every goroutine writes a distinct layer slot, so the result is
// identical to the serial build at any pool size.
func buildTreeCtx(ctx context.Context, in *Instance) (*Tree, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := priorityOrder(in)
	if len(order) >= parallelTreeMin {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		layers := make([]Clique, len(order))
		tensor.ParallelFor(len(order), 16, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				layers[i] = Clique{TaskIndex: order[i], Vertices: buildCliqueVertices(in, order[i])}
			}
		})
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return &Tree{inst: in, Layers: layers}, nil
	}
	t := &Tree{inst: in, Layers: make([]Clique, 0, len(order))}
	for _, ti := range order {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		t.Layers = append(t.Layers, Clique{TaskIndex: ti, Vertices: buildCliqueVertices(in, ti)})
	}
	return t, nil
}

// priorityOrder returns task indices in tree-layer order: descending
// priority, ties broken by instance order.
func priorityOrder(in *Instance) []int {
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Tasks[order[a]].Priority > in.Tasks[order[b]].Priority
	})
	return order
}

// buildCliqueVertices constructs the sibling group of one task: every
// feasible (path × quality) combination sorted by the clique ordering,
// with the reject vertex last. The result depends only on the task's own
// fields and the specs of the blocks its paths reference — the property
// the incremental solver's clique cache relies on for invalidation.
func buildCliqueVertices(in *Instance, ti int) []Vertex {
	task := &in.Tasks[ti]
	qualities := task.QualityOptions()
	var vertices []Vertex
	for pi := range task.Paths {
		p := &task.Paths[pi]
		c := in.PathCompute(p)
		if time.Duration(c*float64(time.Second)) > task.MaxLatency {
			continue
		}
		var train, mem float64
		for _, id := range p.Blocks {
			train += in.BlockTrainSeconds(id)
			mem += in.BlockMemoryGB(id)
		}
		for qi := range qualities {
			q := qualities[qi]
			if p.Accuracy-q.AccuracyDelta < task.MinAccuracy {
				continue
			}
			v := Vertex{Path: p, Compute: c, Train: train, Memory: mem, Bits: q.Bits}
			if qi > 0 { // level 0 is the implicit full quality
				quality := q
				v.Quality = &quality
			}
			vertices = append(vertices, v)
		}
	}
	// Primary order is ascending inference compute time (the paper's
	// clique ordering); compute ties — frequent among pruned variants
	// and quality twins — break toward lower training cost, then lower
	// memory, then fewer input bits, so the first-branch rule does not
	// pick a gratuitously expensive twin.
	sort.SliceStable(vertices, func(a, b int) bool {
		va, vb := vertices[a], vertices[b]
		if va.Compute != vb.Compute {
			return va.Compute < vb.Compute
		}
		if va.Train != vb.Train {
			return va.Train < vb.Train
		}
		if va.Memory != vb.Memory {
			return va.Memory < vb.Memory
		}
		return va.Bits < vb.Bits
	})
	return append(vertices, Vertex{}) // reject vertex
}

// NumBranches returns the total number of root-to-leaf branches of the
// full tree (the Π_τ N_τ size the paper's complexity analysis cites).
func (t *Tree) NumBranches() float64 {
	n := 1.0
	for _, c := range t.Layers {
		n *= float64(len(c.Vertices))
	}
	return n
}

// branchState tracks the memory/training correlation along a branch: the
// set of blocks activated by the vertices chosen so far.
type branchState struct {
	inst   *Instance
	active map[string]bool
	// newBlocks[d] lists blocks first activated at depth d, enabling O(1)
	// backtracking.
	newBlocks [][]string
	memoryGB  float64
	trainSec  float64
}

func newBranchState(in *Instance) *branchState {
	return &branchState{inst: in, active: make(map[string]bool)}
}

// push activates the vertex's blocks; it returns the memory after the
// push. Pop must be called to backtrack.
func (s *branchState) push(v Vertex) float64 {
	var added []string
	if v.Path != nil {
		for _, id := range v.Path.Blocks {
			if !s.active[id] {
				s.active[id] = true
				added = append(added, id)
				s.memoryGB += s.inst.BlockMemoryGB(id)
				s.trainSec += s.inst.BlockTrainSeconds(id)
			}
		}
	}
	s.newBlocks = append(s.newBlocks, added)
	return s.memoryGB
}

// pop undoes the most recent push.
func (s *branchState) pop() {
	last := s.newBlocks[len(s.newBlocks)-1]
	s.newBlocks = s.newBlocks[:len(s.newBlocks)-1]
	for _, id := range last {
		delete(s.active, id)
		s.memoryGB -= s.inst.BlockMemoryGB(id)
		s.trainSec -= s.inst.BlockTrainSeconds(id)
	}
}

// unassigned returns one pathless assignment per task, parallel to
// Instance.Tasks — every task rejected until a walk says otherwise.
func (in *Instance) unassigned() []Assignment {
	out := make([]Assignment, len(in.Tasks))
	for i := range in.Tasks {
		out[i] = Assignment{TaskID: in.Tasks[i].ID}
	}
	return out
}

// assignmentsFor converts chosen vertices (parallel to t.Layers) into an
// assignment slice parallel to Instance.Tasks, with z and r left for the
// allocator.
func (t *Tree) assignmentsFor(chosen []Vertex) ([]Assignment, error) {
	if len(chosen) != len(t.Layers) {
		return nil, fmt.Errorf("%w: %d chosen vertices for %d layers", ErrModel, len(chosen), len(t.Layers))
	}
	out := t.inst.unassigned()
	for li, v := range chosen {
		ti := t.Layers[li].TaskIndex
		out[ti].Path = v.Path
		out[ti].Quality = v.Quality
	}
	return out, nil
}

// firstBranch is OffloaDNN's first-branch rule (Sec. IV-A), the only
// such walk: layers lists the task index of each tree layer in traversal
// order and cliqueOf yields a layer's vertices (reject vertex last); at
// every layer the left-most vertex whose blocks fit the remaining memory
// budget is taken. Cancellation is checked per layer. The assignments are
// parallel to in.Tasks, with z and r left for the allocator.
func firstBranch(ctx context.Context, in *Instance, layers []int, cliqueOf func(layer int) []Vertex) ([]Assignment, error) {
	state := newBranchState(in)
	out := in.unassigned()
	for li, ti := range layers {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		picked := false
		for _, v := range cliqueOf(li) {
			if state.push(v) <= in.Res.MemoryGB+1e-12 {
				out[ti].Path = v.Path
				out[ti].Quality = v.Quality
				picked = true
				break
			}
			state.pop()
		}
		if !picked {
			return nil, fmt.Errorf("%w: no vertex fits the memory budget", ErrNoFeasiblePath)
		}
	}
	return out, nil
}
