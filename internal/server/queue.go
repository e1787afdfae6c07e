package server

import (
	"context"
	"sync"
	"sync/atomic"
)

// maxLowRunning caps the low-priority jobs running at once. Upgrades
// on every idle worker raised serve-hot-tier's p99 latency by 23% on
// two CPUs (EXPERIMENTS.md): they took the CPU and the workers that
// fast-tier misses wait for. With one, the other workers stay free
// for requests.
const maxLowRunning = 1

// queue is the server's one scheduler: a fixed worker pool fed by two
// lanes. The request lane is a fixed-capacity channel with explicit
// admission — TrySubmit refuses immediately when the buffer is full,
// which is what turns overload into fast 429 responses instead of
// unbounded goroutine pile-up; Submit blocks, the backpressure variant
// the batch endpoint uses. The low lane carries work no caller waits
// for (tier upgrades): a worker takes from it only when no request job
// is waiting, so low-priority work fills idle workers and never holds
// a request slot. The lane's owner keeps the waiting jobs and picks
// which one runs; the queue holds one token per waiting job and calls
// runLow once per token it takes. At most maxLowRunning low-priority
// jobs run at once.
//
// Close stops admission and drains the request lane: queued request
// jobs still run, so a SIGTERM never abandons accepted work. Low-lane
// work is never owed: Close cancels lowCtx, which the running ones
// run under, and the waiting ones are dropped.
type queue struct {
	jobs   chan func()
	wg     sync.WaitGroup
	active atomic.Int64 // request jobs currently executing

	low        chan struct{} // one token per waiting low-priority job
	lowRunning atomic.Int32
	runLow     func(ctx context.Context)
	lowCtx     context.Context
	stopLow    context.CancelFunc

	mu     sync.RWMutex // guards closed vs. concurrent sends
	closed bool
}

// newQueue starts a queue with the given request-lane capacity and
// worker count (both forced to at least 1). lowCap bounds the waiting
// low-priority jobs, and runLow runs one of them on the calling worker.
func newQueue(capacity, workers, lowCap int, runLow func(ctx context.Context)) *queue {
	q := &queue{
		jobs:   make(chan func(), max(capacity, 1)),
		low:    make(chan struct{}, lowCap),
		runLow: runLow,
	}
	q.lowCtx, q.stopLow = context.WithCancel(context.Background())
	workers = max(workers, 1)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.work()
	}
	return q
}

// work runs request jobs as they come and, while none is waiting and
// a low-priority slot is free, low-priority ones. A worker that finds
// every slot taken waits for requests only; the slot holder loops back
// to the low lane after each job, so it drains the lane while idle.
func (q *queue) work() {
	defer q.wg.Done()
	for {
		select {
		case job, ok := <-q.jobs:
			if !ok {
				return
			}
			q.run(job)
			continue
		default:
		}
		low := q.low
		if q.lowRunning.Load() >= maxLowRunning {
			low = nil
		}
		select {
		case job, ok := <-q.jobs:
			if !ok {
				return
			}
			q.run(job)
		case <-low:
			// The token goes back when a request job arrived with it,
			// which then goes first, or when another worker took the
			// last slot meanwhile.
			if q.lowRunning.Add(1) <= maxLowRunning && len(q.jobs) == 0 {
				q.runLow(q.lowCtx)
			} else {
				q.low <- struct{}{}
			}
			q.lowRunning.Add(-1)
		}
	}
}

func (q *queue) run(job func()) {
	q.active.Add(1)
	job()
	q.active.Add(-1)
}

// TrySubmit enqueues job if there is buffer space, and reports whether
// it was admitted. A full buffer or a closed queue refuses instantly.
func (q *queue) TrySubmit(job func()) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	select {
	case q.jobs <- job:
		return true
	default:
		return false
	}
}

// Submit enqueues job, blocking until buffer space frees or ctx is
// done. It returns ctx.Err() on cancellation and ErrQueueClosed after
// Close.
func (q *queue) Submit(ctx context.Context, job func()) error {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return ErrQueueClosed
	}
	select {
	case q.jobs <- job:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AddLow announces one more waiting low-priority job. The owner keeps
// at most lowCap of them, so the token always fits.
func (q *queue) AddLow() { q.low <- struct{}{} }

// Depth is the number of admitted request jobs not yet finished
// (buffered plus executing).
func (q *queue) Depth() int { return len(q.jobs) + int(q.active.Load()) }

// Capacity is the request lane's admission bound.
func (q *queue) Capacity() int { return cap(q.jobs) }

// Close cancels the running low-priority jobs, stops admission, lets
// the workers drain every queued request job, and returns once the
// pool has exited.
func (q *queue) Close() {
	q.stopLow()
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
