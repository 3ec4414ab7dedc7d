package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Vertex is one decision for a task: a feasible DNN path, or the implicit
// rejection decision (Path == nil, used when no path fits the remaining
// memory — the task then gets z = 0).
type Vertex struct {
	// path is the candidate execution; nil marks the reject vertex.
	path *PathSpec
	// quality is the input-quality level paired with the path (nil =
	// full quality). Vertices enumerate (path × quality) combinations.
	quality *QualityLevel
	// compute caches Σ c(s) over the path (0 for reject).
	compute float64
	// train caches Σ ct(s) over the path's blocks (upper bound — sharing
	// may reduce the charged cost). Used only to break compute ties.
	train float64
	// memory caches Σ µ(s) over the path's blocks (upper bound).
	memory float64
	// bits caches β(q) of the vertex's quality level.
	bits float64
}

// reject reports whether this is the rejection decision.
func (v Vertex) reject() bool { return v.path == nil }

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

// buildTreeCtx is BuildTree with cancellation checked between layers.
// The layers are built on the calling goroutine, deliberately: a clique
// is ≈ 2.5 µs of map lookups, so fanning them out over the tensor pool
// saves at most half of 1.3 ms at 512 tasks — when a second core happens
// to be free — and measured 2 ms of 49 at 10 000, while making a solve
// that is mostly tree build read 2.3 or 3.2 ms from one run to the next.
func buildTreeCtx(ctx context.Context, in *Instance) (*Tree, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := priorityOrder(in)
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

// pathKey is a feasible path's part of the clique ordering: the three
// sort keys every vertex of the path shares, and the path's index.
type pathKey struct {
	compute, train, memory float64
	index                  int
}

// comparePathKeys orders two paths by ascending inference compute time,
// then training cost, then memory.
func comparePathKeys(a, b pathKey) int {
	if c := cmp.Compare(a.compute, b.compute); c != 0 {
		return c // the common case: skip the tie-break keys
	}
	return cmp.Or(cmp.Compare(a.train, b.train), cmp.Compare(a.memory, b.memory))
}

// buildCliqueVertices constructs the sibling group of one task: every
// feasible (path × quality) combination sorted by the clique ordering,
// with the reject vertex last. The result depends only on the task's own
// fields and the specs of the blocks its paths reference — the property
// the incremental solver's clique cache relies on for invalidation.
//
// Primary order is ascending inference compute time (the paper's clique
// ordering); compute ties — frequent among pruned variants and quality
// twins — break toward lower training cost, then lower memory, then
// fewer input bits, so the first-branch rule does not pick a gratuitously
// expensive twin; full ties keep (path, quality) order. Three of the four
// keys belong to the path, so it is the paths' 32-byte pointer-free keys
// that are sorted, and the vertices are written once, in their final
// place: only a run of paths equal in all three keys has its vertices
// sorted, by bits alone. That is the order a stable four-key sort of the
// vertices gives, without moving 64-byte pointer-carrying values through
// the garbage collector's write barrier.
func buildCliqueVertices(in *Instance, ti int) []Vertex {
	task := &in.Tasks[ti]
	qualities := task.qualityOptions()
	var buf [16]pathKey
	paths := buf[:0]
	for pi := range task.Paths {
		// One Blocks and one Predeployed lookup per block for all three
		// sums; the per-quantity accessors would make five.
		var c, train, mem float64
		for _, id := range task.Paths[pi].Blocks {
			b := in.Blocks[id]
			c += b.ComputeSeconds
			if !in.Predeployed[id] {
				train += b.TrainSeconds
				mem += b.MemoryGB
			}
		}
		if time.Duration(c*float64(time.Second)) > task.MaxLatency {
			continue
		}
		paths = append(paths, pathKey{compute: c, train: train, memory: mem, index: pi})
	}
	slices.SortStableFunc(paths, comparePathKeys)
	vertices := make([]Vertex, 0, len(paths)*len(qualities)+1) // +1: the reject vertex
	for lo := 0; lo < len(paths); {
		hi := lo + 1
		for hi < len(paths) && comparePathKeys(paths[lo], paths[hi]) == 0 {
			hi++
		}
		run := len(vertices)
		for _, k := range paths[lo:hi] {
			p := &task.Paths[k.index]
			for qi := range qualities {
				q := qualities[qi]
				if p.Accuracy-q.AccuracyDelta < task.MinAccuracy {
					continue
				}
				v := Vertex{path: p, compute: k.compute, train: k.train, memory: k.memory, bits: q.Bits}
				if qi > 0 { // level 0 is the implicit full quality
					quality := q
					v.quality = &quality
				}
				vertices = append(vertices, v)
			}
		}
		if len(vertices)-run > 1 {
			slices.SortStableFunc(vertices[run:], func(va, vb Vertex) int { return cmp.Compare(va.bits, vb.bits) })
		}
		lo = hi
	}
	return append(vertices, Vertex{}) // reject vertex
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
	if v.path != nil {
		for _, id := range v.path.Blocks {
			if !s.active[id] {
				s.active[id] = true
				added = append(added, id)
				s.memoryGB += s.inst.BlockMemoryGB(id)
				s.trainSec += s.inst.blockTrainSeconds(id)
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
		s.trainSec -= s.inst.blockTrainSeconds(id)
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
		return nil, fmt.Errorf("%w: %d chosen vertices for %d layers", errModel, len(chosen), len(t.Layers))
	}
	out := t.inst.unassigned()
	for li, v := range chosen {
		ti := t.Layers[li].TaskIndex
		out[ti].Path = v.path
		out[ti].Quality = v.quality
	}
	return out, nil
}

// firstBranch walks the tree's own layers by the first-branch rule.
func (t *Tree) firstBranch(ctx context.Context) ([]Assignment, error) {
	layers := make([]int, len(t.Layers))
	for li := range t.Layers {
		layers[li] = t.Layers[li].TaskIndex
	}
	return firstBranch(ctx, t.inst, layers, func(li int) []Vertex { return t.Layers[li].Vertices })
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
				out[ti].Path = v.path
				out[ti].Quality = v.quality
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
