package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The tensor engine shards large kernels (GEMM row panels, convolution
// pixel rows, the batch axis of a model forward) across a package-level
// pool of persistent worker goroutines. The pool is bounded and never
// queues: a parallel region claims only workers that are idle right now
// (at most Parallelism()-1 are claimed across all live regions) and runs
// the rest of its shards on the caller's goroutine. A kernel that finds
// every worker taken — because it runs under a region that already forked
// (a Model.ForwardBatch shard), or because other goroutines keep the
// cores busy — therefore runs serially instead of waiting behind them, so
// exactly one level of a call tree forks and nested regions cannot
// deadlock. Which goroutine runs which shard never changes a result: the
// shard boundaries depend only on the sizes and the configured
// parallelism, and every kernel's per-element summation order is fixed.

// maxPoolWorkers caps the persistent worker count regardless of
// SetParallelism, bounding goroutine growth on large GOMAXPROCS hosts.
const maxPoolWorkers = 64

var (
	parallelism atomic.Int32

	// poolClaimed counts workers claimed by live regions.
	poolClaimed atomic.Int32
	poolLive    atomic.Int32
	poolMu      sync.Mutex
	poolTasks   chan *region
	// regionFree recycles regions; a mutex-guarded stack, like the scratch
	// freelists, because sync.Pool drops entries at will (and under -race
	// at random), which the zero-allocation pins would see.
	regionFree []*region
)

func init() {
	parallelism.Store(int32(defaultParallelism()))
}

func defaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetParallelism sets the number of goroutines (including the caller)
// that large kernels may use, and returns the previous value. n <= 0
// resets to runtime.GOMAXPROCS(0). Parallelism 1 forces every kernel
// onto the caller's goroutine with the exact seed summation order, which
// is what the profiler uses for reproducible single-worker c(s)
// measurements and what tests use for determinism.
func SetParallelism(n int) int {
	if n <= 0 {
		n = defaultParallelism()
	}
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	return int(parallelism.Swap(int32(n)))
}

// Parallelism returns the current kernel parallelism.
func Parallelism() int { return int(parallelism.Load()) }

// IdleWorkers returns how many pool workers no live region has claimed.
// Kernels consult it before building a parallel region: with none idle
// the serial path is both faster and allocation-free.
func IdleWorkers() int {
	if idle := Parallelism() - 1 - int(poolClaimed.Load()); idle > 0 {
		return idle
	}
	return 0
}

// claimWorkers claims up to want idle workers and returns how many it got.
func claimWorkers(want int) int {
	for {
		claimed := poolClaimed.Load()
		take := min(want, Parallelism()-1-int(claimed))
		if take <= 0 {
			return 0
		}
		if poolClaimed.CompareAndSwap(claimed, claimed+int32(take)) {
			return take
		}
	}
}

// ensureWorkers starts persistent pool workers until at least n exist.
func ensureWorkers(n int) {
	if int(poolLive.Load()) >= n {
		return
	}
	poolMu.Lock()
	if poolTasks == nil {
		poolTasks = make(chan *region, maxPoolWorkers) // one slot per claimable worker
	}
	for int(poolLive.Load()) < n {
		poolLive.Add(1)
		go func() {
			for r := range poolTasks {
				r.drain()
				r.wg.Done()
			}
		}()
	}
	poolMu.Unlock()
}

// shardPlan splits [0,n) into count contiguous spans of chunk elements
// (the last may be shorter). The split depends only on n, the grain and
// the goroutine bound, so a given configuration always produces the same
// work decomposition (and therefore the same floating-point reduction
// groupings where shards reduce into per-shard accumulators).
type shardPlan struct{ n, chunk, count int }

// planShards plans at most workers spans (<= 0: Parallelism()) of at
// least grain elements each.
func planShards(n, grain, workers int) shardPlan {
	if n <= 0 {
		return shardPlan{}
	}
	if grain < 1 {
		grain = 1
	}
	p := workers
	if p <= 0 {
		p = Parallelism()
	}
	p = min(p, maxPoolWorkers, (n+grain-1)/grain)
	chunk := (n + p - 1) / p
	return shardPlan{n: n, chunk: chunk, count: (n + chunk - 1) / chunk}
}

func (pl shardPlan) span(i int) (lo, hi int) {
	return i * pl.chunk, min((i+1)*pl.chunk, pl.n)
}

// region is one in-flight parallel call: the caller and every worker it
// claimed pull span indices off next until the plan is exhausted. Regions
// are recycled, and fn is stored as passed, so a caller that reuses its
// func value forks without allocating.
type region struct {
	fn   func(si, lo, hi int)
	plan shardPlan
	next atomic.Int32
	wg   sync.WaitGroup
}

func (r *region) drain() {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.plan.count {
			return
		}
		lo, hi := r.plan.span(i)
		r.fn(i, lo, hi)
	}
}

// runShards executes a shard plan on the caller's goroutine plus as many
// idle pool workers as it can claim (possibly none). fn receives the
// shard index and its bounds.
func runShards(pl shardPlan, fn func(si, lo, hi int)) {
	got := 0
	if pl.count > 1 {
		got = claimWorkers(pl.count - 1)
	}
	if got == 0 {
		for i := 0; i < pl.count; i++ {
			lo, hi := pl.span(i)
			fn(i, lo, hi)
		}
		return
	}
	ensureWorkers(int(poolClaimed.Load()))
	var r *region
	poolMu.Lock()
	if last := len(regionFree) - 1; last >= 0 {
		r, regionFree = regionFree[last], regionFree[:last]
	}
	poolMu.Unlock()
	if r == nil {
		r = new(region)
	}
	r.fn, r.plan = fn, pl
	r.next.Store(0)
	r.wg.Add(got)
	for i := 0; i < got; i++ {
		poolTasks <- r
	}
	r.drain()
	r.wg.Wait()
	poolClaimed.Add(-int32(got))
	r.fn = nil
	poolMu.Lock()
	regionFree = append(regionFree, r) // at most one per concurrent caller
	poolMu.Unlock()
}

// parallelFor runs fn over [0,n) split into contiguous shards of at
// least grain elements, on the caller plus whatever workers are idle.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	ParallelFor(n, grain, 0, fn)
}

// ParallelShards is ParallelFor for callers that keep per-shard state: fn
// also receives the shard's index, which is below min(workers, n). fn is
// handed to the pool as passed, so a caller that reuses one func value
// forks without allocating.
func ParallelShards(n, grain, workers int, fn func(si, lo, hi int)) {
	runShards(planShards(n, grain, workers), fn)
}

// ParallelFor runs fn over [0,n) split into contiguous shards of at
// least grain elements each, at most workers of them (workers <= 0 uses
// the configured Parallelism()). The shard boundaries depend only on
// (n, grain, workers), never on scheduling, so callers that need a
// deterministic work decomposition get it at any pool size. This is also
// the entry point for callers outside the package — the solver's clique
// construction and branch search, Model.ForwardBatch — which reuse the
// inference pool instead of spawning their own goroutines.
func ParallelFor(n, grain, workers int, fn func(lo, hi int)) {
	runShards(planShards(n, grain, workers), func(_, lo, hi int) { fn(lo, hi) })
}
