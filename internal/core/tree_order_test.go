package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// fourKeySortedClique is the clique ordering as its definition reads:
// every feasible (path × quality) vertex in (path, quality) order, then a
// stable sort by compute, train, memory and bits. buildCliqueVertices
// sorts the paths' keys instead and must give the same layer.
func fourKeySortedClique(in *Instance, ti int) []Vertex {
	task := &in.Tasks[ti]
	qualities := task.qualityOptions()
	var vertices []Vertex
	for pi := range task.Paths {
		p := &task.Paths[pi]
		c := in.PathCompute(p)
		if time.Duration(c*float64(time.Second)) > task.MaxLatency {
			continue
		}
		var train, mem float64
		for _, id := range p.Blocks {
			train += in.blockTrainSeconds(id)
			mem += in.BlockMemoryGB(id)
		}
		for qi := range qualities {
			q := qualities[qi]
			if p.Accuracy-q.AccuracyDelta < task.MinAccuracy {
				continue
			}
			v := Vertex{path: p, compute: c, train: train, memory: mem, bits: q.Bits}
			if qi > 0 {
				v.quality = &q
			}
			vertices = append(vertices, v)
		}
	}
	sort.SliceStable(vertices, func(a, b int) bool {
		va, vb := vertices[a], vertices[b]
		if va.compute != vb.compute {
			return va.compute < vb.compute
		}
		if va.train != vb.train {
			return va.train < vb.train
		}
		if va.memory != vb.memory {
			return va.memory < vb.memory
		}
		return va.bits < vb.bits
	})
	return append(vertices, Vertex{})
}

// TestCliqueOrderMatchesFourKeySort draws tasks whose keys tie often —
// every block quantity and every quality's bits come from three values,
// some blocks are predeployed, and some paths and qualities are filtered
// — and compares each clique with the four-key stable sort, vertex by
// vertex: same path, same quality level, same cached sums.
func TestCliqueOrderMatchesFourKeySort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	in := &Instance{Blocks: map[string]BlockSpec{}, Predeployed: map[string]bool{}}
	for b := 0; b < 12; b++ {
		id := fmt.Sprintf("b%d", b)
		in.Blocks[id] = BlockSpec{
			ID:             id,
			ComputeSeconds: pick(0.01, 0.02, 0.2),
			TrainSeconds:   pick(0, 10, 20),
			MemoryGB:       pick(0.1, 0.2, 0.4),
		}
		in.Predeployed[id] = rng.Intn(4) == 0
	}
	for ti := 0; ti < 300; ti++ {
		task := Task{
			ID:          fmt.Sprintf("t%d", ti),
			MinAccuracy: 0.6,
			MaxLatency:  250 * time.Millisecond,
			InputBits:   pick(1e5, 2e5, 3e5),
		}
		for q := rng.Intn(4); q > 0; q-- {
			task.Qualities = append(task.Qualities, QualityLevel{
				ID: fmt.Sprintf("q%d", q), Bits: pick(1e5, 2e5, 3e5), AccuracyDelta: pick(0, 0.05, 0.3),
			})
		}
		for p := 1 + rng.Intn(20); p > 0; p-- { // up to 20: past the key buffer's 16
			path := PathSpec{ID: fmt.Sprintf("p%d", p), Accuracy: pick(0.62, 0.7, 0.95)}
			for b := 1 + rng.Intn(3); b > 0; b-- {
				path.Blocks = append(path.Blocks, fmt.Sprintf("b%d", rng.Intn(12)))
			}
			task.Paths = append(task.Paths, path)
		}
		in.Tasks = append(in.Tasks, task)
	}
	ties := 0
	for ti := range in.Tasks {
		got, want := buildCliqueVertices(in, ti), fourKeySortedClique(in, ti)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: clique differs from the four-key stable sort\n got %+v\nwant %+v", ti, got, want)
		}
		for i := 1; i < len(want)-1; i++ {
			if want[i].compute == want[i-1].compute && want[i].train == want[i-1].train && want[i].memory == want[i-1].memory {
				ties++
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d three-key ties drawn: the table no longer exercises the tie-break", ties)
	}
}
