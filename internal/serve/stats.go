package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/metrics"
)

// tierSlots is the size of the per-tier stats arrays, indexed by
// core.Tier (TierAuto..TierApprox).
const tierSlots = int(core.TierApprox) + 1

// taskCounters tallies the offload verdicts of one task.
type taskCounters struct {
	admitted atomic.Uint64
	rejected atomic.Uint64
	// infer holds the task's measured inference latencies (seconds);
	// allocated on the first executed offload, nil for predict-only
	// traffic.
	infer atomic.Pointer[metrics.Window]
}

// Stats aggregates the daemon's live counters: request totals, per-task
// admit/reject verdicts, solve bookkeeping and the end-to-end latency
// window backing the exported p50/p95/p99.
type Stats struct {
	start          time.Time
	requests       atomic.Uint64
	aborted        atomic.Uint64
	solves         atomic.Uint64
	solveErrors    atomic.Uint64
	solvePanics    atomic.Uint64
	lastSolveNanos atomic.Int64
	// Per-tier solve bookkeeping, indexed by core.Tier: how many epochs
	// each solver tier produced and the duration of its most recent one.
	tierSolves    [tierSlots]atomic.Uint64
	tierLastNanos [tierSlots]atomic.Int64
	latency       *metrics.Window
	// earlySheds counts requests the serve layer shed before they reached
	// the backend queue (overload fast path: predicted latency exceeds
	// the deadline budget while the runtime is under deadline pressure).
	earlySheds atomic.Uint64
	// hopLatency windows the per-hop execution latencies of split-path
	// segments this node ran (head or relay), backing
	// offloadnn_hop_latency_seconds.
	hopLatency *metrics.Window
	// activationBytes totals the boundary-activation envelope bytes this
	// node forwarded to next hops.
	activationBytes atomic.Uint64

	mu           sync.Mutex
	perTask      map[string]*taskCounters
	lastSolveErr string
	// shedTimes is a bounded ring of recent backend shed instants (late
	// and queue-full verdicts) — the overload signal /healthz degrades
	// on while sheds inside overloadWindow stay ≥ overloadAfter.
	shedTimes []time.Time
	shedHead  int
}

// shedRingCap bounds the overload ring; sheds beyond it inside one
// window saturate the signal, which is all the health coupling needs.
const shedRingCap = 256

// noteShed records one backend shed instant into the overload ring.
func (s *Stats) noteShed(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.shedTimes) < shedRingCap {
		s.shedTimes = append(s.shedTimes, t)
		return
	}
	s.shedTimes[s.shedHead] = t
	s.shedHead = (s.shedHead + 1) % shedRingCap
}

// recentSheds counts backend sheds younger than window at now.
func (s *Stats) recentSheds(window time.Duration, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := now.Add(-window)
	n := 0
	for _, t := range s.shedTimes {
		if t.After(cutoff) {
			n++
		}
	}
	return n
}

// EarlySheds returns how many requests the serve layer shed before the
// backend queue (counted under the "late" shed reason on /metrics).
func (s *Stats) EarlySheds() uint64 { return s.earlySheds.Load() }

func newStats(start time.Time) *Stats {
	return &Stats{
		start:      start,
		latency:    metrics.NewWindow(latencyWindow),
		hopLatency: metrics.NewWindow(latencyWindow),
		perTask:    make(map[string]*taskCounters),
	}
}

func (s *Stats) task(id string) *taskCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.perTask[id]
	if !ok {
		c = &taskCounters{}
		s.perTask[id] = c
	}
	return c
}

// recordAdmit counts an offload its unit's gate admitted.
func (s *Stats) recordAdmit(id string) {
	s.task(id).admitted.Add(1)
}

// recordInfer folds one executed offload's measured latency (seconds)
// into the task's inference-quantile window.
func (s *Stats) recordInfer(id string, latencySeconds float64) {
	c := s.task(id)
	w := c.infer.Load()
	if w == nil {
		fresh := metrics.NewWindow(latencyWindow)
		if c.infer.CompareAndSwap(nil, fresh) {
			w = fresh
		} else {
			w = c.infer.Load()
		}
	}
	w.Add(latencySeconds)
}

// inferWindow returns the task's measured inference-latency window, nil
// when the task has executed no offloads.
func (s *Stats) inferWindow(id string) *metrics.Window {
	s.mu.Lock()
	c, ok := s.perTask[id]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return c.infer.Load()
}

// recordHop folds one split-segment execution latency (seconds) into
// the hop-latency window.
func (s *Stats) recordHop(latencySeconds float64) {
	s.hopLatency.Add(latencySeconds)
}

// recordReject counts a rate-rejected offload.
func (s *Stats) recordReject(id string) {
	s.task(id).rejected.Add(1)
}

// taskIDs returns the IDs with counters, sorted for deterministic
// rendering.
func (s *Stats) taskIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.SortedKeys(s.perTask)
}

// setLastSolveError records (or, on nil, clears) the most recent solve
// failure for /healthz.
func (s *Stats) setLastSolveError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.lastSolveErr = ""
		return
	}
	s.lastSolveErr = err.Error()
}

// lastSolveError returns the most recent solve failure, empty after a
// success.
func (s *Stats) lastSolveError() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSolveErr
}

// abortedTotal returns the offload requests whose client disconnected before
// gate work; they are counted here instead of consuming tokens.
func (s *Stats) abortedTotal() uint64 { return s.aborted.Load() }

// solvePanicsTotal returns how many solver panics were recovered into
// counted solve errors.
func (s *Stats) solvePanicsTotal() uint64 { return s.solvePanics.Load() }

// recordSolveTier counts a published epoch against the solver tier that
// produced it.
func (s *Stats) recordSolveTier(t core.Tier, d time.Duration) {
	if i := int(t); i >= 0 && i < tierSlots {
		s.tierSolves[i].Add(1)
		s.tierLastNanos[i].Store(int64(d))
	}
}

// tierSolveCount returns how many published epochs the given solver tier
// produced.
func (s *Stats) tierSolveCount(t core.Tier) uint64 {
	if i := int(t); i >= 0 && i < tierSlots {
		return s.tierSolves[i].Load()
	}
	return 0
}

// tierLastSolveLatency returns the duration of the tier's most recent
// solve, zero when the tier has produced no epochs.
func (s *Stats) tierLastSolveLatency(t core.Tier) time.Duration {
	if i := int(t); i >= 0 && i < tierSlots {
		return time.Duration(s.tierLastNanos[i].Load())
	}
	return 0
}

// admitted returns a task's admitted-offload count.
func (s *Stats) admitted(id string) uint64 { return s.task(id).admitted.Load() }

// rejected returns a task's rate-rejected offload count.
func (s *Stats) rejected(id string) uint64 { return s.task(id).rejected.Load() }
