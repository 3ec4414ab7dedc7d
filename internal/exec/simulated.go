package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"offloadnn/internal/edge"
)

// Simulated is the predict-only execution backend: it answers every
// admitted request with the installed deployment's planned per-task cost
// (edge.PlanCosts — the arithmetic previously duplicated between the
// resolver's predicted latency and the Fig. 11 emulator). It runs no
// model and returns no logits.
type Simulated struct {
	mu     sync.Mutex
	costs  map[string]edge.TaskCost
	served int64
	hits   int64
	misses int64
	closed bool
}

// NewSimulated constructs a cost-model backend; no plan is installed
// yet, so every Infer fails with errNoModel until the first Install.
func NewSimulated() *Simulated {
	return &Simulated{costs: map[string]edge.TaskCost{}}
}

// Install implements Backend: it re-evaluates the per-task cost table
// for the new deployment at the unscaled planning rates.
func (s *Simulated) Install(plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("exec: nil plan")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.costs = edge.PlanCosts(plan.Tasks, plan.Blocks, plan.Res, plan.Deployment, 0)
	// Segment ranges answer with their slice's modeled compute; the
	// transfer legs live in the serving layer, which never forwards a
	// simulated activation (there is none).
	for _, seg := range plan.Segments {
		if err := seg.Validate(); err != nil {
			return err
		}
		var proc float64
		for _, id := range seg.Blocks[seg.From:seg.To] {
			proc += plan.Blocks[id].ComputeSeconds
		}
		s.costs[RouteKey(seg.TaskID, seg.From)] = edge.TaskCost{
			Proc: time.Duration(proc * float64(time.Second)),
		}
	}
	return nil
}

// Infer implements Backend: the answer is the planned per-frame cost of
// the task. The input payload is accepted but not
// interpreted; no logits are produced. The cost model answers instantly,
// so a request deadline matters only when the *modeled* latency blows
// it: the simulated hit/miss accounting mirrors what the deadline-aware
// runtime would report for the planned costs, without shedding anything.
func (s *Simulated) Infer(_ context.Context, req Request) (Output, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Output{}, errClosed
	}
	cost, ok := s.costs[RouteKey(req.TaskID, req.FromStage)]
	if !ok {
		return Output{}, fmt.Errorf("%w: %q (stage %d)", errNoModel, req.TaskID, req.FromStage)
	}
	lat := cost.Total()
	s.served++
	if !req.Deadline.IsZero() {
		if time.Now().Add(lat).After(req.Deadline) {
			s.misses++
		} else {
			s.hits++
		}
	}
	return Output{Argmax: -1, BatchSize: 1, Latency: lat, Simulated: true}, nil
}

// Stats implements Backend. Every simulated answer is a batch of one.
func (s *Simulated) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Models:         len(s.costs),
		Batches:        s.served,
		Requests:       s.served,
		DeadlineHits:   s.hits,
		DeadlineMisses: s.misses,
	}
}

// Close implements Backend.
func (s *Simulated) Close() {
	s.mu.Lock()
	s.closed = true
	s.costs = nil
	s.mu.Unlock()
}
