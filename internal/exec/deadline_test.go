package exec

// White-box tests for the deadline-aware runtime: EDF intake ordering,
// pre-batch lateness shedding, bounded-queue backpressure and canceled
// request accounting. They live inside the package to reach the intake
// heap and the batchHook, which make the batching executor deterministic
// without wall-clock races.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offloadnn/internal/core"
	"offloadnn/internal/dnn"
	"offloadnn/internal/edge"
	"offloadnn/internal/faultinject"
	"offloadnn/internal/radio"
)

func dlModel() dnn.ResNetConfig {
	return dnn.ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4, StageBlocks: [4]int{1, 1, 1, 1}, Seed: 7,
	}
}

// dlPlan is the single-path plan the deadline tests run against: one
// task, one block, batching queue keyed by "base/s1".
func dlPlan(epoch uint64) *Plan {
	task := core.Task{ID: "t1", Rate: 10, MaxLatency: time.Second, InputBits: 1e5, Priority: 0.5}
	p := &core.PathSpec{ID: "p-t1", DNN: "d", Blocks: []string{"base/s1"}, Accuracy: 0.9}
	return &Plan{
		Epoch:  epoch,
		Tasks:  []core.Task{task},
		Blocks: map[string]core.BlockSpec{"base/s1": {ID: "base/s1", ComputeSeconds: 0.01}},
		Res: core.Resources{
			RBs: 10, ComputeSeconds: 1, MemoryGB: 10, TrainBudgetSeconds: 1000,
			Capacity: radio.FixedRate{Rate: 1e6},
		},
		Deployment: &edge.Deployment{
			Solution: &core.Solution{Assignments: []core.Assignment{
				{TaskID: "t1", Path: p, Z: 1, RBs: 2},
			}},
			AdmittedRates: map[string]float64{"t1": 10},
		},
	}
}

func dlReal(t *testing.T, cfg RealConfig) *Real {
	t.Helper()
	if cfg.Model.BaseWidth == 0 {
		cfg.Model = dlModel()
	}
	r, err := NewReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func dlInput(r *Real) []float64 {
	shape := r.InputShape()
	in := make([]float64, shape[0]*shape[1]*shape[2])
	for i := range in {
		in[i] = float64(i%7) / 7
	}
	return in
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIntakeOrderingProperty drives the intake heap with concurrent
// enqueuers across worker counts and asserts the pop order is exactly
// the intake order lessReq defines: deadlines non-decreasing with
// deadline-free requests last and, with no deadlines set at all, strict
// arrival order.
func TestIntakeOrderingProperty(t *testing.T) {
	const perWorker = 64
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name      string
			deadlines bool
		}{
			{"edf", true},
			{"edf-no-deadlines", false},
		} {
			r := &Real{cfg: RealConfig{QueueDepth: -1}}
			e := &modelEntry{
				avail: make(chan struct{}, 1),
				done:  make(chan struct{}),
			}
			// Deadlines are drawn per worker up front (the shared rng is
			// not goroutine-safe) and kept far in the future so tryPop
			// never sheds.
			rng := rand.New(rand.NewSource(int64(workers)*31 + 7))
			base := time.Now().Add(time.Hour).UnixNano()
			dls := make([][]int64, workers)
			for w := range dls {
				dls[w] = make([]int64, perWorker)
				for i := range dls[w] {
					if mode.deadlines && rng.Intn(4) > 0 { // ~1/4 deadline-free
						dls[w][i] = base + int64(rng.Intn(1000))*int64(time.Millisecond)
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(ds []int64) {
					defer wg.Done()
					for _, d := range ds {
						q := &inferReq{deadline: d, resp: make(chan inferResp, 1)}
						if err := r.enqueue(e, q); err != nil {
							t.Errorf("enqueue: %v", err)
						}
					}
				}(dls[w])
			}
			wg.Wait()
			var popped []*inferReq
			for q := r.tryPop(e); q != nil; q = r.tryPop(e) {
				popped = append(popped, q)
			}
			if len(popped) != workers*perWorker {
				t.Fatalf("%s/%d workers: popped %d of %d", mode.name, workers, len(popped), workers*perWorker)
			}
			for i := 1; i < len(popped); i++ {
				if lessReq(popped[i], popped[i-1]) {
					t.Fatalf("%s/%d workers: pop %d (deadline %d, seq %d) out of order after (deadline %d, seq %d)",
						mode.name, workers, i, popped[i].deadline, popped[i].seq, popped[i-1].deadline, popped[i-1].seq)
				}
				// No deadlines anywhere: EDF must be exact arrival order.
				if !mode.deadlines && popped[i].seq != popped[i-1].seq+1 {
					t.Fatalf("%s/%d workers: seq %d follows %d, want arrival order",
						mode.name, workers, popped[i].seq, popped[i-1].seq)
				}
			}
		}
	}
}

// TestLateRequestShedBeforeBatch pins the shed point: a request whose
// deadline expires while the executor stalls (exec.slow) is answered
// ErrLate from the intake queue and never enters a batch.
func TestLateRequestShedBeforeBatch(t *testing.T) {
	fi := faultinject.New(1)
	fi.Set(faultinject.PointExecSlow, faultinject.Rule{EveryN: 1, HangFor: 150 * time.Millisecond})
	r := dlReal(t, RealConfig{BatchSize: 1, QueueDepth: -1, Faults: fi})
	var batches atomic.Int64
	r.batchHook = func(int) { batches.Add(1) }
	if err := r.Install(dlPlan(1)); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)

	aErr := make(chan error, 1)
	go func() {
		_, err := r.Infer(context.Background(), Request{TaskID: "t1", Input: in})
		aErr <- err
	}()
	// The slow point is hit at the head of the blocker's batch: once it
	// registers, the executor is mid-stall and the queue is empty.
	waitUntil(t, "exec.slow hit", func() bool { return fi.Hits(faultinject.PointExecSlow) >= 1 })

	// This deadline expires during the stall — well before the executor
	// frees up.
	_, err := r.Infer(context.Background(), Request{
		TaskID: "t1", Input: in, Deadline: time.Now().Add(40 * time.Millisecond),
	})
	if !errors.Is(err, ErrLate) {
		t.Fatalf("stalled-past-deadline request: err = %v, want ErrLate", err)
	}
	if err := <-aErr; err != nil {
		t.Fatalf("blocker request failed: %v", err)
	}
	st := r.Stats()
	if st.ShedLate != 1 || st.DeadlineMisses != 1 || st.DeadlineHits != 0 {
		t.Fatalf("shed accounting: late=%d misses=%d hits=%d, want 1/1/0",
			st.ShedLate, st.DeadlineMisses, st.DeadlineHits)
	}
	if n := batches.Load(); n != 1 {
		t.Fatalf("%d batches ran, want 1: the late request must not enter a batch", n)
	}
}

// TestBoundedQueueShedsLatestDeadline pins the backpressure policy: a
// full queue sheds the waiter that sorts last — an urgent arrival
// displaces the most leisurely waiter, while an arrival less urgent than
// everything queued is shed itself.
func TestBoundedQueueShedsLatestDeadline(t *testing.T) {
	r := dlReal(t, RealConfig{BatchSize: 1, QueueDepth: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	r.batchHook = func(int) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	if err := r.Install(dlPlan(1)); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)
	now := time.Now()
	infer := func(dl time.Time) chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := r.Infer(context.Background(), Request{TaskID: "t1", Input: in, Deadline: dl})
			ch <- err
		}()
		return ch
	}
	depth := func(n int) func() bool {
		return func() bool { return r.Stats().QueueDepth == n }
	}

	// The blocker occupies the executor: once its batch signals entry it
	// is parked on the gate and everything after it piles into the queue.
	blocker := infer(time.Time{})
	<-entered

	w1 := infer(now.Add(time.Hour))
	waitUntil(t, "w1 queued", depth(1))
	w2 := infer(now.Add(2 * time.Hour))
	waitUntil(t, "queue full", depth(2))

	// w3 is more urgent than w2: w2 — the latest-deadline waiter, not the
	// newest arrival — is evicted.
	w3 := infer(now.Add(30 * time.Minute))
	if err := <-w2; !errors.Is(err, ErrQueueFull) {
		t.Fatalf("evicted waiter: err = %v, want ErrQueueFull", err)
	}
	// w4 is the least urgent request in sight: it is shed on arrival.
	if _, err := r.Infer(context.Background(), Request{
		TaskID: "t1", Input: in, Deadline: now.Add(3 * time.Hour),
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("least-urgent arrival: err = %v, want ErrQueueFull", err)
	}

	close(gate)
	for name, ch := range map[string]chan error{"blocker": blocker, "w1": w1, "w3": w3} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st := r.Stats()
	if st.ShedQueueFull != 2 {
		t.Fatalf("ShedQueueFull = %d, want 2", st.ShedQueueFull)
	}
	if st.DeadlineMisses != 2 || st.DeadlineHits != 2 {
		t.Fatalf("deadline accounting: misses=%d hits=%d, want 2/2", st.DeadlineMisses, st.DeadlineHits)
	}
}

// TestCanceledRequestsCounted pins satellite accounting: a caller that
// disconnects mid-batch has its result copy skipped, a canceled waiter
// never enters a batch, and both count under ShedCanceled.
func TestCanceledRequestsCounted(t *testing.T) {
	r := dlReal(t, RealConfig{BatchSize: 1, QueueDepth: -1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	var batches atomic.Int64
	r.batchHook = func(int) {
		batches.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	if err := r.Install(dlPlan(1)); err != nil {
		t.Fatal(err)
	}
	in := dlInput(r)

	actx, acancel := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := r.Infer(actx, Request{TaskID: "t1", Input: in})
		aErr <- err
	}()
	<-entered // A is mid-batch, parked on the gate

	bctx, bcancel := context.WithCancel(context.Background())
	bErr := make(chan error, 1)
	go func() {
		_, err := r.Infer(bctx, Request{TaskID: "t1", Input: in})
		bErr <- err
	}()
	waitUntil(t, "B queued", func() bool { return r.Stats().QueueDepth == 1 })

	acancel()
	bcancel()
	close(gate)
	for name, ch := range map[string]chan error{"A": aErr, "B": bErr} {
		if err := <-ch; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
	}
	waitUntil(t, "canceled sheds counted", func() bool { return r.Stats().ShedCanceled == 2 })
	if n := batches.Load(); n != 1 {
		t.Fatalf("%d batches ran, want 1: the canceled waiter must not enter a batch", n)
	}
	if st := r.Stats(); st.Requests != 1 {
		t.Fatalf("Requests = %d, want 1 (only the mid-batch request executed)", st.Requests)
	}
}

// TestInstallRefreshesEntryRate pins that every Install rewrites the
// admitted rate of the entries it keeps: two tasks sharing a path at
// 300/s each expect 1.2 arrivals per 2 ms window and wait; once one task
// leaves, the surviving entry (same pointer, warm swap) expects 0.6 and a
// lone request no longer waits.
func TestInstallRefreshesEntryRate(t *testing.T) {
	r := dlReal(t, RealConfig{BatchSize: 8, BatchWindow: 2 * time.Millisecond})
	shared := func(epoch uint64, tasks ...string) *Plan {
		p := dlPlan(epoch)
		path := p.Deployment.Solution.Assignments[0].Path
		p.Deployment.Solution.Assignments = nil
		for _, id := range tasks {
			p.Deployment.Solution.Assignments = append(p.Deployment.Solution.Assignments,
				core.Assignment{TaskID: id, Path: path, Z: 1, RBs: 2})
			p.Deployment.AdmittedRates[id] = 300
		}
		return p
	}
	window := func() time.Duration {
		t.Helper()
		if _, err := r.Infer(context.Background(), Request{TaskID: "t1", Input: dlInput(r)}); err != nil {
			t.Fatal(err)
		}
		return r.Stats().LastWindow
	}
	if err := r.Install(shared(1, "t1", "t2")); err != nil {
		t.Fatal(err)
	}
	entry := r.models["base/s1"]
	if w := window(); w != 2*time.Millisecond {
		t.Fatalf("two tasks at 300/s: window %v, want the full 2ms", w)
	}
	if err := r.Install(shared(2, "t1")); err != nil {
		t.Fatal(err)
	}
	if r.models["base/s1"] != entry {
		t.Fatal("the warm swap rebuilt the shared entry")
	}
	if w := window(); w != 0 {
		t.Fatalf("one task at 300/s: window %v, want 0", w)
	}
}

// TestEDFBeatsFIFOOnSameSeededBurst is the acceptance pin: on one
// adversarial burst — arrivals in reverse deadline order, served by a
// single executor with a fixed per-batch cost — EDF intake achieves a
// strictly higher deadline-hit-rate than arrival order at the same
// offered load. The baseline is the same burst with every Deadline
// withheld: the backend then serves it in arrival order, and each answer
// is judged against the deadline its request would have carried.
func TestEDFBeatsFIFOOnSameSeededBurst(t *testing.T) {
	const (
		n    = 7
		cost = 40 * time.Millisecond
	)
	run := func(withhold bool) (hits int) {
		r := dlReal(t, RealConfig{BatchSize: 1, QueueDepth: -1})
		start := make(chan struct{})
		var popped atomic.Int64
		r.batchHook = func(int) {
			if popped.Add(1) == 1 {
				<-start // hold the burst window open until arrivals queue up
			}
			time.Sleep(cost) // the injected, order-independent batch cost
		}
		if err := r.Install(dlPlan(1)); err != nil {
			t.Fatal(err)
		}
		in := dlInput(r)

		type answer struct {
			deadline, done time.Time
			err            error
		}
		answers := make(chan answer, n+1)
		infer := func(dl time.Time) {
			req := Request{TaskID: "t1", Input: in}
			if !withhold {
				req.Deadline = dl
			}
			go func() {
				_, err := r.Infer(context.Background(), req)
				answers <- answer{dl, time.Now(), err}
			}()
		}
		// The deadline-free blocker pins the executor so the whole burst
		// queues behind one busy model — the overload moment.
		infer(time.Time{})
		waitUntil(t, "blocker popped", func() bool { return popped.Load() == 1 })

		// Request k can afford to be served k-th (completion ≈ (k+1)·cost
		// counting the blocker) with 1.5·cost of slack. Arrivals run in
		// reverse: the most relaxed request first, the most urgent last.
		base := time.Now()
		for i, k := 0, n; k >= 1; i, k = i+1, k-1 {
			infer(base.Add(time.Duration(k+1)*cost + 3*cost/2))
			waitUntil(t, "burst queued", func() bool { return r.Stats().QueueDepth == i+1 })
		}
		close(start)
		for i := 0; i < n+1; i++ {
			a := <-answers
			if a.err != nil && !errors.Is(a.err, ErrLate) {
				t.Fatalf("withhold=%v: burst request failed: %v", withhold, a.err)
			}
			if !a.deadline.IsZero() && a.err == nil && !a.done.After(a.deadline) {
				hits++
			}
		}
		carried := int64(n)
		if withhold {
			carried = 0
		}
		if st := r.Stats(); st.DeadlineHits+st.DeadlineMisses != carried {
			t.Fatalf("withhold=%v: backend judged %d+%d deadlines, want %d",
				withhold, st.DeadlineHits, st.DeadlineMisses, carried)
		}
		return hits
	}

	edf := run(false)
	baseline := run(true)
	t.Logf("deadline hits: edf %d/%d, arrival order %d/%d", edf, n, baseline, n)
	if edf <= baseline {
		t.Fatalf("EDF hits %d/%d not above arrival order's %d/%d on the same burst", edf, n, baseline, n)
	}
}
