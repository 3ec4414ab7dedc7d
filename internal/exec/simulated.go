package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"offloadnn/internal/edge"
)

// SimulatedConfig parameterizes the cost-model backend.
type SimulatedConfig struct {
	// LinkRateFactor scales the delivered per-RB rate against the
	// planning value B(σ); ≤ 0 means 1.0 (see edge.EmulatorConfig).
	LinkRateFactor float64
	// ComputeScale scales every path compute time; ≤ 0 means 1.0.
	ComputeScale float64
	// Jitter adds ±Jitter·latency uniform noise to each answer,
	// emulating per-frame variability; 0 is deterministic.
	Jitter float64
	// Seed drives the jitter.
	Seed int64
}

// Simulated is the predict-only execution backend: it answers every
// admitted request with the installed deployment's planned per-task cost
// (edge.PlanCosts — the arithmetic previously duplicated between the
// resolver's predicted latency and the Fig. 11 emulator). It runs no
// model and returns no logits.
type Simulated struct {
	cfg SimulatedConfig

	mu     sync.Mutex
	costs  map[string]edge.TaskCost
	rng    *rand.Rand
	served int64
	hits   int64
	misses int64
	closed bool
}

// NewSimulated constructs a cost-model backend; no plan is installed
// yet, so every Infer fails with ErrNoModel until the first Install.
func NewSimulated(cfg SimulatedConfig) *Simulated {
	return &Simulated{
		cfg:   cfg,
		costs: map[string]edge.TaskCost{},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Install implements Backend: it re-evaluates the per-task cost table
// for the new deployment.
func (s *Simulated) Install(plan *Plan) error {
	if plan == nil {
		return fmt.Errorf("exec: nil plan")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.costs = edge.PlanCosts(plan.Tasks, plan.Blocks, plan.Res, plan.Deployment,
		s.cfg.LinkRateFactor, s.cfg.ComputeScale)
	// Segment ranges answer with their slice's modeled compute; the
	// transfer legs live in the serving layer, which never forwards a
	// simulated activation (there is none).
	scale := s.cfg.ComputeScale
	if scale <= 0 {
		scale = 1
	}
	for _, seg := range plan.Segments {
		if err := seg.Validate(); err != nil {
			return err
		}
		var proc float64
		for _, id := range seg.Blocks[seg.From:seg.To] {
			proc += plan.Blocks[id].ComputeSeconds
		}
		s.costs[RouteKey(seg.TaskID, seg.From)] = edge.TaskCost{
			Proc: time.Duration(proc * scale * float64(time.Second)),
		}
	}
	return nil
}

// Infer implements Backend: the answer is the planned per-frame cost of
// the task, optionally jittered. The input payload is accepted but not
// interpreted; no logits are produced. The cost model answers instantly,
// so a request deadline matters only when the *modeled* latency blows
// it: the simulated hit/miss accounting mirrors what the deadline-aware
// runtime would report for the planned costs, without shedding anything.
func (s *Simulated) Infer(_ context.Context, req Request) (Output, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Output{}, ErrClosed
	}
	cost, ok := s.costs[RouteKey(req.TaskID, req.FromStage)]
	if !ok {
		return Output{}, fmt.Errorf("%w: %q (stage %d)", ErrNoModel, req.TaskID, req.FromStage)
	}
	lat := cost.Total()
	if s.cfg.Jitter > 0 {
		lat = time.Duration(float64(lat) * (1 + s.cfg.Jitter*(2*s.rng.Float64()-1)))
	}
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

// InputShape implements Backend; the cost model accepts any input.
func (s *Simulated) InputShape() []int { return nil }

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
