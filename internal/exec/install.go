package exec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

// modelEntry is one assembled stage range of a path plus its batching
// executor. An entry is keyed by the range's block-ID signature, so tasks
// assigned the same path share one entry — and their requests batch
// together.
type modelEntry struct {
	sig   string
	model *dnn.Model
	keys  []string         // library keys the model aliases (stem, stages, classifier)
	prec  tensor.Precision // kernel precision the path runs at (post-gate)
	done  chan struct{}    // closed when the entry is released

	// Range geometry: a whole path is the range [0, n). inShape is the
	// per-request input (a frame for from==0, a boundary activation
	// otherwise); outShape is the boundary activation a non-tail range
	// emits; emitsLogits marks entries that end in the classifier.
	from        int
	inShape     [3]int
	outShape    [3]int
	emitsLogits bool

	// qmu guards the intake heap; avail carries a capacity-1 wakeup
	// token — every push signals it (non-blocking), and the executor
	// re-polls the heap after every wake, so no enqueue is ever missed.
	qmu     sync.Mutex
	queue   reqQueue
	qclosed bool
	seq     uint64
	avail   chan struct{}

	// execEWMA tracks the entry's smoothed ForwardBatch duration (ns) —
	// the execution-cost estimate the adaptive batch window subtracts
	// from the tightest pending slack.
	execEWMA atomic.Int64
	// rate holds the float64 bits of the summed admitted rate (req/s) of
	// the ranges the installed plan routes here: every Install rewrites it
	// and the executor reads it to skip a window no second arrival fills.
	rate atomic.Uint64
}

// pathSignature keys a model entry: two assignments with the same block
// sequence share one model (and one batch queue).
func pathSignature(blocks []string) string { return strings.Join(blocks, "|") }

// segmentSignature keys a model entry. The range is part of the key —
// the same block slice at a different path offset occupies different
// stages — and the range [0, n) is keyed by the path signature alone, the
// key Stats().PathPrecisions reports whole paths under.
func segmentSignature(blocks []string, from, to int) string {
	if from == 0 && to == len(blocks) {
		return pathSignature(blocks)
	}
	return pathSignature(blocks[from:to]) + "#" + strconv.Itoa(from) + "-" + strconv.Itoa(to)
}

// RouteKey addresses an installed range — here and in the serving layer's
// unit table: plain task ID for raw-frame intake (whole paths and head
// segments), suffixed with the resume stage for mid-path segments.
func RouteKey(taskID string, from int) string {
	if from == 0 {
		return taskID
	}
	return taskID + "#" + strconv.Itoa(from)
}

// buildEntry assembles the model for one stage range of a path, resolving
// (and creating on demand) its shared block instances; a whole path is
// the range [0, n). The stem joins only a range starting at 0 and the
// classifier only one ending at n; other ranges consume and emit boundary
// activations whose shapes follow analytically from the template
// geometry. The path's precision variant also keys the stem and
// classifier instances ("stem@i8", "classifier/32@i8"), so the whole path
// runs at the chosen precision while the float64 stem and classifier
// stay shareable by f64 paths.
//
// A reduced-precision range is gated against the FULL path: calibration
// scales are per-block state, and deriving them from the complete path on
// every node is what keeps a split quantized path bit-identical to the
// unsplit one. For the range [0, n) the full path is the entry's own
// model; otherwise the blocks outside the range are instantiated as
// ordinary (unreferenced) library blocks for the gate and dropped by
// pruneUnreferenced afterward. mu held.
func (r *Real) buildEntry(seg Segment) (*modelEntry, error) {
	n := len(seg.Blocks)
	prec := pathPrecisionOf(seg.Blocks)
	suffix := ""
	if prec != tensor.F64 {
		suffix = "@" + prec.String()
	}
	gated := prec != tensor.F64
	// bound resolves the stem or the classifier at the path's precision.
	bound := func(key string, stage int, build func() *dnn.Block) (*dnn.Block, error) {
		inst, err := r.instantiate(key, stage, func() (*dnn.Block, error) {
			b := build()
			if prec != tensor.F64 {
				if err := b.SetPrecision(prec); err != nil {
					return nil, err
				}
			}
			return b, nil
		})
		if err != nil {
			return nil, err
		}
		return inst.block, nil
	}
	var keys []string
	var stem, cls *dnn.Block
	var err error
	if seg.head() || gated {
		if stem, err = bound("stem"+suffix, 0, func() *dnn.Block { return dnn.BuildStemBlock(r.cfg.Model) }); err != nil {
			return nil, err
		}
	}
	if seg.head() {
		keys = append(keys, "stem"+suffix)
	}
	lo, hi := seg.From, seg.To
	if gated {
		lo, hi = 0, n
	}
	stages := make([]*dnn.Block, n)
	for i := lo; i < hi; i++ {
		id, stage := seg.Blocks[i], min(i+1, 4)
		inst, err := r.instantiate(id, stage, func() (*dnn.Block, error) {
			return r.stageBlock(id, stage)
		})
		if err != nil {
			return nil, err
		}
		stages[i] = inst.block
	}
	keys = append(keys, seg.Blocks[seg.From:seg.To]...)
	if seg.tail() || gated {
		featureDim := dnn.StageWidth(r.cfg.Model, n)
		clsKey := "classifier/" + strconv.Itoa(featureDim) + suffix
		if cls, err = bound(clsKey, 5, func() *dnn.Block { return dnn.BuildClassifierBlock(r.cfg.Model, featureDim) }); err != nil {
			return nil, err
		}
		if seg.tail() {
			keys = append(keys, clsKey)
		}
	}
	e := &modelEntry{
		sig:         segmentSignature(seg.Blocks, seg.From, seg.To),
		keys:        keys,
		from:        seg.From,
		inShape:     r.cfg.Input,
		emitsLogits: seg.tail(),
		avail:       make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	segStem, segCls := stem, cls
	if !seg.head() {
		segStem = nil
		e.inShape = dnn.SegmentBoundaryShape(r.cfg.Model, r.cfg.Input, seg.From)
	}
	if !seg.tail() {
		segCls = nil
		e.outShape = dnn.SegmentBoundaryShape(r.cfg.Model, r.cfg.Input, seg.To)
	}
	if e.model, err = dnn.AssembleSegmentModel("exec/"+e.sig, segStem, stages[seg.From:seg.To], segCls); err != nil {
		return nil, err
	}
	if gated {
		path := e.model
		if !seg.head() || !seg.tail() {
			if path, err = dnn.AssembleSegmentModel("gate/"+e.sig, stem, stages, cls); err != nil {
				return nil, err
			}
		}
		if prec, err = r.gate(path, seg.Blocks, prec); err != nil {
			return nil, err
		}
	}
	e.prec = prec
	return e, nil
}

// Install implements Backend. The swap is warm: model entries (and the
// block instances they alias) that survive from the previous plan are
// retained with only their admitted rate refreshed — their batch queues
// keep draining across the epoch boundary — while entries no surviving
// assignment references are released and their blocks' refcounts
// decremented (freed at zero).
// On error the previous plan stays installed.
func (r *Real) Install(plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("exec: nil plan")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errClosed
	}

	// Resolve the desired model set, building entries for new paths.
	desired := make(map[string]*modelEntry)
	routes := make(map[string]*modelEntry)
	rates := make(map[*modelEntry]float64)
	var created []*modelEntry
	fail := func(err error) error {
		// Creation is side-effect free until commit except for library
		// inserts, pruned here.
		for _, e := range created {
			close(e.done)
		}
		r.pruneUnreferenced()
		return err
	}
	// A whole path is the segment [0, n) of its block list: every admitted
	// assignment joins the pushed segments as one.
	var segs []Segment
	if plan.Deployment != nil && plan.Deployment.Solution != nil {
		for _, a := range plan.Deployment.Solution.Assignments {
			if a.Admitted() {
				segs = append(segs, Segment{TaskID: a.TaskID, PathID: a.Path.ID, DNN: a.Path.DNN,
					Blocks: a.Path.Blocks, To: len(a.Path.Blocks), Rate: plan.Deployment.AdmittedRates[a.TaskID]})
			}
		}
	}
	for _, seg := range append(segs, plan.Segments...) {
		if err := seg.Validate(); err != nil {
			return fail(fmt.Errorf("exec: install epoch %d: %w", plan.Epoch, err))
		}
		sig := segmentSignature(seg.Blocks, seg.From, seg.To)
		e, ok := desired[sig]
		if !ok {
			if e, ok = r.models[sig]; !ok {
				var err error
				if e, err = r.buildEntry(seg); err != nil {
					return fail(fmt.Errorf("exec: install epoch %d: %w", plan.Epoch, err))
				}
				created = append(created, e)
			}
			desired[sig] = e
		}
		routes[RouteKey(seg.TaskID, seg.From)] = e
		rates[e] += seg.Rate
	}

	// Commit: refresh every kept entry's rate, retire entries absent from
	// the desired set, start the executors of the created ones, swap the
	// routing table.
	for e, rate := range rates {
		e.rate.Store(math.Float64bits(rate))
	}
	for sig, e := range r.models {
		if _, keep := desired[sig]; !keep {
			for _, k := range e.keys {
				if inst := r.lib[k]; inst != nil {
					inst.refs--
				}
			}
			close(e.done)
			delete(r.models, sig)
		}
	}
	for _, e := range created {
		for _, k := range e.keys {
			r.lib[k].refs++
		}
		r.models[e.sig] = e
		r.wg.Add(1)
		go r.serveModel(e)
	}
	r.pruneUnreferenced()
	r.routes.Store(&routes)
	if r.cfg.Logf != nil && len(created) > 0 {
		label := ""
		if plan.Node != "" {
			label = " node=" + plan.Node
		}
		r.cfg.Logf("exec: install epoch %d%s: %d models (%d built), %d shared blocks",
			plan.Epoch, label, len(r.models), len(created), len(r.lib))
	}
	return nil
}
