package serve

import (
	"errors"
	"fmt"
	"sync"

	"offloadnn/internal/core"
	"offloadnn/internal/workload"
)

// ErrExists reports a registration under an ID already live.
var ErrExists = errors.New("serve: task already registered")

// errUnknownTask reports an operation on an ID that is not registered.
var errUnknownTask = errors.New("serve: unknown task")

// Registry is the daemon's concurrent-safe task table: the set of live
// offloading requests the next epoch's DOT instance is assembled from,
// plus the shared DNN-block catalog their candidate paths reference.
// Every mutation bumps a generation counter so the re-solver can tell a
// stale epoch from a current one.
type Registry struct {
	catalog workload.CatalogParams

	mu     sync.Mutex
	tasks  map[string]core.Task
	order  []string // insertion order, for deterministic instance assembly
	blocks map[string]core.BlockSpec
	gen    uint64
	seq    int // monotonic task index driving catalog accuracy jitter
}

// NewRegistry creates an empty registry whose HTTP-submitted tasks get
// candidate paths built from the given catalog parameters.
func NewRegistry(catalog workload.CatalogParams, blocks map[string]core.BlockSpec) *Registry {
	r := &Registry{
		catalog: catalog,
		tasks:   make(map[string]core.Task),
		blocks:  make(map[string]core.BlockSpec),
	}
	for id, b := range blocks {
		r.blocks[id] = b
	}
	return r
}

// validateTask checks the request-side fields of a task.
func validateTask(t *core.Task) error {
	if t.ID == "" {
		return fmt.Errorf("serve: task has empty ID")
	}
	if t.Priority < 0 || t.Priority > 1 {
		return fmt.Errorf("serve: task %s priority %v outside [0,1]", t.ID, t.Priority)
	}
	if t.Rate <= 0 {
		return fmt.Errorf("serve: task %s rate %v must be positive", t.ID, t.Rate)
	}
	if t.MinAccuracy < 0 || t.MinAccuracy > 1 {
		return fmt.Errorf("serve: task %s accuracy floor %v outside [0,1]", t.ID, t.MinAccuracy)
	}
	if t.MaxLatency <= 0 {
		return fmt.Errorf("serve: task %s latency bound %v must be positive", t.ID, t.MaxLatency)
	}
	if t.InputBits <= 0 {
		return fmt.Errorf("serve: task %s input bits %v must be positive", t.ID, t.InputBits)
	}
	return nil
}

// Register adds a pre-built task, merging any blocks its paths reference
// into the shared catalog. Tasks without paths get candidates built from
// the registry's catalog parameters (the HTTP-submission route).
func (r *Registry) Register(t core.Task, blocks map[string]core.BlockSpec) error {
	if err := validateTask(&t); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tasks[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrExists, t.ID)
	}
	for id, b := range blocks {
		if _, ok := r.blocks[id]; !ok {
			r.blocks[id] = b
		}
	}
	if len(t.Paths) == 0 {
		t.Paths = r.catalog.BuildPaths(r.blocks, t.ID, r.seq)
	}
	for _, p := range t.Paths {
		for _, b := range p.Blocks {
			if _, ok := r.blocks[b]; !ok {
				return fmt.Errorf("serve: task %s path %s references unknown block %q", t.ID, p.ID, b)
			}
		}
	}
	r.tasks[t.ID] = t
	r.order = append(r.order, t.ID)
	r.seq++
	r.gen++
	return nil
}

// replace swaps the registry's whole task set for the given one (the
// cluster-member plan push): tasks absent from the new set are dropped,
// new ones are added, and a task whose fields are unchanged keeps its
// stored struct — preserving the identity of its Paths/Qualities backing
// arrays, which is what lets the resolver's sessionDelta treat it as
// untouched across pushes. Tasks must arrive pre-built (with candidate
// paths); blocks they reference are merged into the catalog first. The
// registry is untouched on a validation error. It returns whether
// anything actually changed (an identical push bumps no generation, so
// the resolver's no-op check keeps holding).
func (r *Registry) replace(tasks []core.Task, blocks map[string]core.BlockSpec) (bool, error) {
	for i := range tasks {
		if err := validateTask(&tasks[i]); err != nil {
			return false, err
		}
		if len(tasks[i].Paths) == 0 {
			return false, fmt.Errorf("serve: replace: task %s has no candidate paths (cluster pushes must pre-build them)", tasks[i].ID)
		}
	}
	seen := make(map[string]bool, len(tasks))
	for i := range tasks {
		if seen[tasks[i].ID] {
			return false, fmt.Errorf("serve: replace: duplicate task ID %q", tasks[i].ID)
		}
		seen[tasks[i].ID] = true
	}
	// A spec core.Instance.Validate would refuse fails the push, not an epoch.
	for id, b := range blocks {
		if b.ID != id || !(b.ComputeSeconds >= 0 && b.MemoryGB >= 0 && b.TrainSeconds >= 0) {
			return false, fmt.Errorf("serve: replace: invalid spec %+v for block %q", b, id)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := make(map[string]core.BlockSpec, len(r.blocks)+len(blocks))
	for id, b := range r.blocks {
		merged[id] = b
	}
	for id, b := range blocks {
		if _, ok := merged[id]; !ok {
			merged[id] = b
		}
	}
	for i := range tasks {
		for _, p := range tasks[i].Paths {
			if len(p.Blocks) == 0 {
				return false, fmt.Errorf("serve: replace: task %s path %s has no blocks", tasks[i].ID, p.ID)
			}
			for _, b := range p.Blocks {
				if _, ok := merged[b]; !ok {
					return false, fmt.Errorf("serve: replace: task %s path %s references unknown block %q", tasks[i].ID, p.ID, b)
				}
			}
		}
	}
	changed := len(blocks) > 0 && len(merged) != len(r.blocks)
	next := make(map[string]core.Task, len(tasks))
	order := make([]string, 0, len(tasks))
	for i := range tasks {
		t := tasks[i]
		if prev, ok := r.tasks[t.ID]; ok {
			rate := t.Rate
			t.Rate = prev.Rate
			if taskEqual(&prev, &t) {
				// Keep the stored struct: path identity survives the push,
				// so the resolver's sessionDelta sees an unchanged task (or
				// a cheap rate-only update) instead of a remove + re-add.
				t = prev
				t.Rate = rate
				changed = changed || rate != prev.Rate
			} else {
				t.Rate = rate
				changed = true
			}
		} else {
			changed = true
		}
		next[t.ID] = t
		order = append(order, t.ID)
	}
	if len(next) != len(r.tasks) {
		changed = true
	} else {
		for i, id := range order {
			if i >= len(r.order) || r.order[i] != id {
				changed = true
				break
			}
		}
	}
	if !changed {
		return false, nil
	}
	r.tasks = next
	r.order = order
	r.blocks = merged
	r.gen++
	return true, nil
}

// taskEqual reports whether two task snapshots carry identical fields,
// comparing Paths and Qualities by value (a pushed task arrives through
// JSON, so backing-array identity never holds across pushes).
func taskEqual(a, b *core.Task) bool {
	if a.ID != b.ID || a.Priority != b.Priority || a.Rate != b.Rate ||
		a.MinAccuracy != b.MinAccuracy || a.MaxLatency != b.MaxLatency ||
		a.InputBits != b.InputBits || a.SNRdB != b.SNRdB ||
		len(a.Qualities) != len(b.Qualities) || len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Qualities {
		if a.Qualities[i] != b.Qualities[i] {
			return false
		}
	}
	for i := range a.Paths {
		pa, pb := &a.Paths[i], &b.Paths[i]
		if pa.ID != pb.ID || pa.DNN != pb.DNN || pa.Accuracy != pb.Accuracy || len(pa.Blocks) != len(pb.Blocks) {
			return false
		}
		for j := range pa.Blocks {
			if pa.Blocks[j] != pb.Blocks[j] {
				return false
			}
		}
	}
	return true
}

// Deregister removes a task. Removing an absent ID is an error so the
// HTTP layer can answer 404.
func (r *Registry) Deregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tasks[id]; !ok {
		return fmt.Errorf("%w: %q", errUnknownTask, id)
	}
	delete(r.tasks, id)
	for i, tid := range r.order {
		if tid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.gen++
	return nil
}

// Has reports whether the ID is currently registered.
func (r *Registry) Has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tasks[id]
	return ok
}

// Len returns the number of live tasks.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tasks)
}

// Generation returns the mutation counter.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Snapshot copies out the live tasks (in registration order), the block
// catalog and the generation the copy corresponds to. The copies are the
// re-solver's: later registry mutations do not touch them.
func (r *Registry) Snapshot() ([]core.Task, map[string]core.BlockSpec, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tasks := make([]core.Task, 0, len(r.order))
	for _, id := range r.order {
		tasks = append(tasks, r.tasks[id])
	}
	blocks := make(map[string]core.BlockSpec, len(r.blocks))
	for id, b := range r.blocks {
		blocks[id] = b
	}
	return tasks, blocks, r.gen
}
