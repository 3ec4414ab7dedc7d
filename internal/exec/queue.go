package exec

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"time"

	"offloadnn/internal/faultinject"
	"offloadnn/internal/tensor"
)

// inferReq is one admitted request waiting in a model's batching queue.
type inferReq struct {
	ctx      context.Context
	input    []float64
	deadline int64 // unix nanos; 0 = no deadline (sorts last)
	seq      uint64
	resp     chan inferResp
}

type inferResp struct {
	logits []float64
	batch  int
	err    error
}

// lessReq is the intake order, earliest deadline first: zero (no
// deadline) sorts after every deadline-carrying request and ties break
// on the per-entry arrival sequence. With no deadlines set, the order
// is therefore exact arrival order.
func lessReq(a, b *inferReq) bool {
	if a.deadline != b.deadline {
		if a.deadline == 0 {
			return false
		}
		if b.deadline == 0 {
			return true
		}
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

// reqQueue is a model entry's intake queue: a min-heap under lessReq.
type reqQueue struct {
	items []*inferReq
}

func (q *reqQueue) Len() int           { return len(q.items) }
func (q *reqQueue) Less(i, j int) bool { return lessReq(q.items[i], q.items[j]) }
func (q *reqQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *reqQueue) Push(x any)         { q.items = append(q.items, x.(*inferReq)) }
func (q *reqQueue) Pop() any {
	n := len(q.items)
	it := q.items[n-1]
	q.items[n-1] = nil
	q.items = q.items[:n-1]
	return it
}

// enqueue pushes a request onto its entry's intake heap, applying the
// bounded-queue backpressure policy first: when the queue is full, the
// waiter that sorts last (latest deadline — with no deadlines, the newest
// arrival) is shed with ErrQueueFull rather than the newest arrival
// being rejected outright, so an urgent late-burst request can displace
// a leisurely one.
func (r *Real) enqueue(e *modelEntry, q *inferReq) error {
	e.qmu.Lock()
	if e.qclosed {
		e.qmu.Unlock()
		return errReleased
	}
	q.seq = e.seq
	e.seq++
	var evicted *inferReq
	if r.cfg.QueueDepth > 0 && len(e.queue.items) >= r.cfg.QueueDepth {
		worst := 0
		for i := 1; i < len(e.queue.items); i++ {
			if lessReq(e.queue.items[worst], e.queue.items[i]) {
				worst = i
			}
		}
		if !lessReq(q, e.queue.items[worst]) {
			// The incoming request is the least worth serving: shed it.
			e.qmu.Unlock()
			r.shedQueueFull.Add(1)
			if q.deadline != 0 {
				r.deadlineMisses.Add(1)
			}
			return ErrQueueFull
		}
		evicted = e.queue.items[worst]
		heap.Remove(&e.queue, worst)
	}
	heap.Push(&e.queue, q)
	e.qmu.Unlock()
	if evicted != nil {
		r.shedQueueFull.Add(1)
		if evicted.deadline != 0 {
			r.deadlineMisses.Add(1)
		}
		evicted.resp <- inferResp{err: ErrQueueFull}
	}
	select {
	case e.avail <- struct{}{}:
	default:
	}
	return nil
}

// tryPop pops the most urgent waiter, shedding canceled and already-late
// requests on the way: neither enters a batch.
func (r *Real) tryPop(e *modelEntry) *inferReq {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for e.queue.Len() > 0 {
		q := heap.Pop(&e.queue).(*inferReq)
		if q.ctx != nil && q.ctx.Err() != nil {
			r.shedCanceled.Add(1)
			q.resp <- inferResp{err: q.ctx.Err()}
			continue
		}
		if q.deadline != 0 && time.Now().UnixNano() >= q.deadline {
			r.shedLate.Add(1)
			r.deadlineMisses.Add(1)
			q.resp <- inferResp{err: ErrLate}
			continue
		}
		return q
	}
	return nil
}

// nextReq blocks until a serveable request arrives or the entry is
// released (nil). Release wins over a non-empty queue: the remaining
// waiters belong to drain, which answers them errReleased.
func (r *Real) nextReq(e *modelEntry) *inferReq {
	for {
		select {
		case <-e.done:
			return nil
		default:
		}
		if q := r.tryPop(e); q != nil {
			return q
		}
		select {
		case <-e.avail:
		case <-e.done:
			return nil
		}
	}
}

// windowFor is the adaptive batch window: the tightest pending deadline
// slack minus the entry's smoothed execution cost, clamped to
// [0, BatchWindow]. With no deadline-carrying waiters the full
// BatchWindow applies — plentiful slack grows the batch, a deadline
// about to expire collapses the wait to zero. An entry whose admitted
// rate × BatchWindow is below one does not wait at all: the plan expects
// no second arrival before the timer fires.
func (r *Real) windowFor(e *modelEntry, first *inferReq) time.Duration {
	w := r.cfg.BatchWindow
	if math.Float64frombits(e.rate.Load())*w.Seconds() < 1 {
		w = 0
	}
	if w > 0 {
		minDL := first.deadline
		e.qmu.Lock()
		for _, q := range e.queue.items {
			if q.deadline != 0 && (minDL == 0 || q.deadline < minDL) {
				minDL = q.deadline
			}
		}
		e.qmu.Unlock()
		if minDL != 0 {
			slack := time.Duration(minDL-time.Now().UnixNano()) - time.Duration(e.execEWMA.Load())
			if slack < 0 {
				slack = 0
			}
			if slack < w {
				w = slack
			}
		}
	}
	r.lastWindow.Store(int64(w))
	return w
}

// serveModel is one entry's batching executor: it collects up to
// BatchSize requests in intake order (waiting at most the adaptive
// window after the first) and runs them through one ForwardBatch call.
func (r *Real) serveModel(e *modelEntry) {
	defer r.wg.Done()
	for {
		first := r.nextReq(e)
		if first == nil {
			r.drain(e)
			return
		}
		batch := []*inferReq{first}
		if r.cfg.BatchSize > 1 {
			var timer *time.Timer
			if w := r.windowFor(e, first); w > 0 {
				timer = time.NewTimer(w)
			}
		fill:
			for len(batch) < r.cfg.BatchSize {
				if q := r.tryPop(e); q != nil {
					batch = append(batch, q)
					continue
				}
				if timer == nil {
					break fill
				}
				select {
				case <-e.avail:
				case <-timer.C:
					break fill
				case <-e.done:
					break fill
				}
			}
			if timer != nil {
				timer.Stop()
			}
		}
		r.runBatch(e, batch)
	}
}

// drain answers queued requests of a released entry with errReleased and
// closes the queue against further enqueues.
func (r *Real) drain(e *modelEntry) {
	e.qmu.Lock()
	e.qclosed = true
	items := e.queue.items
	e.queue.items = nil
	e.qmu.Unlock()
	for _, q := range items {
		q.resp <- inferResp{err: errReleased}
	}
}

// runBatch assembles the batch tensor, executes the forward pass and
// distributes the per-request logit rows, accounting deadline outcomes
// at completion time. Requests whose caller disconnected mid-flight
// still execute (they are already in the batch) but their result copy
// is skipped and they count under ShedCanceled.
func (r *Real) runBatch(e *modelEntry, batch []*inferReq) {
	n := len(batch)
	if r.cfg.Faults != nil {
		// exec.slow stalls then proceeds; exec.hang blocks until its rule
		// or backend close unwedges it.
		_ = r.cfg.Faults.Hit(context.Background(), faultinject.PointExecSlow)
		_ = r.cfg.Faults.Hit(r.closeCtx, faultinject.PointExecHang)
	}
	if r.batchHook != nil {
		r.batchHook(n)
	}
	c, h, w := e.inShape[0], e.inShape[1], e.inShape[2]
	per := c * h * w
	x := tensor.Rent(n, c, h, w)
	for i, q := range batch {
		copy(x.Data()[i*per:(i+1)*per], q.input)
	}
	fstart := time.Now()
	y, err := e.model.ForwardBatch(x)
	dur := int64(time.Since(fstart))
	tensor.Release(x)
	if old := e.execEWMA.Load(); old == 0 {
		e.execEWMA.Store(dur)
	} else {
		e.execEWMA.Store((3*old + dur) / 4)
	}
	r.lastBatch.Store(int64(n))
	r.batches.Add(1)
	r.requests.Add(int64(n))
	if err != nil {
		for _, q := range batch {
			q.resp <- inferResp{err: fmt.Errorf("exec: forward: %w", err)}
		}
		return
	}
	now := time.Now().UnixNano()
	outPer := y.Len() / n
	for i, q := range batch {
		if q.ctx != nil && q.ctx.Err() != nil {
			r.shedCanceled.Add(1)
			q.resp <- inferResp{err: q.ctx.Err()}
			continue
		}
		if q.deadline != 0 {
			if now <= q.deadline {
				r.deadlineHits.Add(1)
			} else {
				r.deadlineMisses.Add(1)
			}
		}
		logits := make([]float64, outPer)
		copy(logits, y.Data()[i*outPer:(i+1)*outPer])
		q.resp <- inferResp{logits: logits, batch: n}
	}
	tensor.Release(y)
}
