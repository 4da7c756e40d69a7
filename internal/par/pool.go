package par

import (
	"errors"
	"sync"
	"time"

	"sagrelay/internal/fault"
)

// ErrQueueFull reports a Submit against a Pool whose bounded queue is at
// capacity. Callers translate it into backpressure (the job server answers
// 429).
var ErrQueueFull = errors.New("par: task queue full")

// ErrPoolClosed reports a Submit against a Pool that has begun shutting
// down.
var ErrPoolClosed = errors.New("par: pool closed")

// sitePoolTask is the fault-injection point in worker task dispatch; one
// atomic load per task when injection is off.
var sitePoolTask = fault.Register("par.pool.task")

// Pool is a long-lived bounded worker pool: a fixed set of goroutines
// draining a bounded FIFO task queue. It is the service-shaped counterpart
// of ForEach — instead of fanning a known index range out and joining, a
// Pool accepts tasks over its lifetime and applies backpressure when the
// queue is full. The HTTP job server runs every solve through one.
//
// Workers recover panicking tasks: one bad task can never take the process
// down. The recovered panic is converted into a *fault.PanicError, counted
// process-wide (fault.RecoveredPanics) and passed to the handler installed
// with SetPanicHandler. The panic value is otherwise swallowed — tasks that
// own external completion state (job tables, WaitGroups) must install
// their own recover to settle it, because the pool cannot know what a
// half-run task left behind.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	onPanic func(*fault.PanicError)
}

// NewPool starts a pool of workers goroutines (<= 0 means GOMAXPROCS)
// behind a queue holding up to depth pending tasks (depth < 0 is treated
// as 0: Submit only succeeds when a worker is free to take the task soon).
func NewPool(workers, depth int) *Pool {
	if depth < 0 {
		depth = 0
	}
	p := &Pool{tasks: make(chan func(), depth)}
	for range DefaultWorkers(workers) {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				p.run(task)
			}
		}()
	}
	return p
}

// Len returns the number of queued-but-not-yet-dispatched tasks: the
// service's job_queue_depth gauge and the queue state of its overload
// errors.
func (p *Pool) Len() int { return len(p.tasks) }

// Cap returns the task queue's capacity.
func (p *Pool) Cap() int { return cap(p.tasks) }

// SetPanicHandler installs fn, called with every panic a worker recovers
// (nil removes it). The handler runs on the worker goroutine and must be
// safe for concurrent calls from multiple workers.
func (p *Pool) SetPanicHandler(fn func(*fault.PanicError)) {
	p.mu.Lock()
	p.onPanic = fn
	p.mu.Unlock()
}

func (p *Pool) panicHandler() func(*fault.PanicError) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onPanic
}

// run executes one task under panic isolation. An injected dispatch fault
// (sitePoolTask) exercises the recovery path without swallowing the task:
// accepted tasks must run exactly once, or submitter-side completion
// accounting (job states, in-flight WaitGroups) would leak forever.
func (p *Pool) run(task func()) {
	func() {
		defer p.recoverTask()
		if err := fault.Check(sitePoolTask); err != nil {
			// Error/cancel rules at this site have no channel back to the
			// submitter; surface them through the panic-recovery path.
			panic(err)
		}
	}()
	defer p.recoverTask()
	task()
}

// recoverTask converts a panicking task into a counted *fault.PanicError
// delivered to the registered handler; the worker goroutine survives.
func (p *Pool) recoverTask() {
	if v := recover(); v != nil {
		pe := fault.NewPanicError("par.pool.task", v)
		if fn := p.panicHandler(); fn != nil {
			fn(pe)
		}
	}
}

// Submit enqueues task for execution. It never blocks: when the queue is
// full it returns ErrQueueFull, and after Close it returns ErrPoolClosed.
func (p *Pool) Submit(task func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return ErrQueueFull
	}
}

// SubmitBlocking enqueues task, waiting for queue space instead of
// returning ErrQueueFull. It exists for startup-time journal replay, where
// the recovered backlog may exceed the queue depth before the server
// starts accepting traffic. After Close it returns ErrPoolClosed.
func (p *Pool) SubmitBlocking(task func()) error {
	for {
		err := p.Submit(task)
		if !errors.Is(err, ErrQueueFull) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops accepting tasks, waits for the queue to drain and every
// running task to finish, then returns. It is idempotent. Tasks that must
// abort early instead of draining should observe their own context; Close
// only guarantees the pool's goroutines are gone when it returns.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
