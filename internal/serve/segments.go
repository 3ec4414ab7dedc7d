package serve

import (
	"fmt"
	"sort"

	"offloadnn/internal/core"
	"offloadnn/internal/exec"
)

// SegmentSpec is one stage-range of a split path this node serves, as the
// coordinator's split placement pushes it alongside the node's whole-path
// task subset (it is the wire form too: cluster's wireSegment aliases it).
// The head segment gates intake at the admitted rate and opens the
// deadline budget; every non-tail segment forwards its boundary
// activation to Next.
type SegmentSpec struct {
	// Task, Path and DNN identify the split assignment.
	Task string `json:"task"`
	Path string `json:"path"`
	DNN  string `json:"dnn"`
	// Blocks is the FULL path's ordered block-ID list; From/To bound this
	// node's range [From, To) into it.
	Blocks []string `json:"blocks"`
	From   int      `json:"from"`
	To     int      `json:"to"`
	// Rate is the admitted request rate z·λ: the head gates intake at it,
	// and every hop's batch window reads it to tell whether a second
	// request can arrive inside the window.
	Rate float64 `json:"rate"`
	// BudgetMS is the end-to-end deadline budget the head opens the
	// pipeline with (the task's L_τ minus the coordinator→head forward
	// delay); zero on non-head segments, which trust the envelope's
	// remaining budget.
	BudgetMS float64 `json:"budget_ms,omitempty"`
	// RBs is the radio slice the head holds whole for frame intake; zero
	// on non-head segments.
	RBs int `json:"rbs,omitempty"`
	// Hop and Hops are this segment's position and the pipeline length.
	Hop  int `json:"hop"`
	Hops int `json:"hops"`
	// Next and NextNode are the next hop's base URL and node ID; empty on
	// the tail.
	Next     string `json:"next,omitempty"`
	NextNode string `json:"next_node,omitempty"`
}

// headSeg reports whether the spec consumes raw frames.
func (s SegmentSpec) headSeg() bool { return s.From == 0 }

// tailSeg reports whether the spec emits logits.
func (s SegmentSpec) tailSeg() bool { return s.To == len(s.Blocks) }

// execSegment is the execution-layer form of the spec.
func (s SegmentSpec) execSegment() exec.Segment {
	return exec.Segment{TaskID: s.Task, PathID: s.Path, DNN: s.DNN, Blocks: s.Blocks, From: s.From, To: s.To, Rate: s.Rate}
}

// Reservations are the capacity the specs commit on their node — each
// block range at its admitted rate, and the head's slice — as both the
// coordinator's post-condition and the member charge them. The ranges
// must be valid (sortedSegments checks them).
func Reservations(specs []SegmentSpec) []core.Reservation {
	rs := make([]core.Reservation, len(specs))
	for i, s := range specs {
		rs[i] = core.Reservation{Blocks: s.Blocks[s.From:s.To], Rate: s.Rate, RBs: s.RBs}
	}
	return rs
}

// Segments returns the pushed segment specs, sorted by route key.
func (s *Server) Segments() []SegmentSpec {
	if p := s.segments.Load(); p != nil {
		return append([]SegmentSpec(nil), *p...)
	}
	return nil
}

// sortedSegments validates a pushed segment set and returns it sorted by
// route key, the order Segments reports and ReplacePlan compares in.
func sortedSegments(specs []SegmentSpec) ([]SegmentSpec, error) {
	var next []SegmentSpec
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if sp.Task == "" || sp.Path == "" {
			return nil, fmt.Errorf("serve: segment missing task or path identity")
		}
		if err := sp.execSegment().Validate(); err != nil {
			return nil, fmt.Errorf("serve: path %s: %w", sp.Path, err)
		}
		if !sp.tailSeg() && sp.Next == "" {
			return nil, fmt.Errorf("serve: non-tail segment %s/%s[%d,%d) has no next hop",
				sp.Task, sp.Path, sp.From, sp.To)
		}
		k := exec.RouteKey(sp.Task, sp.From)
		if seen[k] {
			return nil, fmt.Errorf("serve: duplicate segment route %s", k)
		}
		seen[k] = true
		next = append(next, sp)
	}
	sort.Slice(next, func(i, j int) bool {
		return exec.RouteKey(next[i].Task, next[i].From) < exec.RouteKey(next[j].Task, next[j].From)
	})
	return next, nil
}
