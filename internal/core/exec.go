package core

import (
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/clock"
	"altrun/internal/sim"
)

// execCtx is the execution context a world's body runs in: real
// goroutine or simulated process.
type execCtx interface {
	// compute consumes d of CPU (processor-shared in sim mode; a plain
	// sleep stand-in in real mode).
	compute(d time.Duration)
	// sleep suspends for d without consuming CPU.
	sleep(d time.Duration)
	// cancelled reports whether the process has been killed.
	cancelled() bool
}

// procHandle controls a spawned process from outside.
type procHandle interface {
	// kill requests termination: unwinding in sim mode, cooperative
	// cancellation in real mode.
	kill()
}

// inbox is an unbounded FIFO queue bound to one backend.
type inbox interface {
	put(v any)
	// get dequeues, blocking the calling context. timeout < 0 waits
	// forever. ok is false on timeout or cancellation.
	get(ctx execCtx, timeout time.Duration) (any, bool)
	// drain removes and returns everything queued.
	drain() []any
	// size returns the queue length.
	size() int
}

// backend abstracts real-goroutine vs simulated execution.
type backend interface {
	spawn(name string, fn func(ctx execCtx)) procHandle
	newInbox() inbox
	now() time.Time
}

// ---------------------------------------------------------------------
// Real backend: goroutines, wall clock, cooperative cancellation.
// ---------------------------------------------------------------------

// maxIdleWorkers caps the parked workers a real backend keeps; a worker
// that finishes a body with the list full exits.
const maxIdleWorkers = 32

// realBackend runs each spawned function on a worker goroutine. A
// worker that returns from a body parks in a LIFO idle list and the
// next spawn hands it its function, so a spawn pays neither goroutine
// creation nor stack growth: the warmest worker runs next, on the
// stack its last body grew. A new goroutine starts only when no worker
// is idle.
type realBackend struct {
	clk clock.Clock

	bodies  sync.WaitGroup // spawned functions that have not returned
	workers sync.WaitGroup // worker goroutines that have not exited

	mu     sync.Mutex
	idle   []chan *realCtx // parked workers' hand-off slots, warmest last
	closed bool            // the runtime is gone: workers exit, none park
}

func newRealBackend(clk clock.Clock) *realBackend {
	if clk == nil {
		clk = clock.Real{}
	}
	return &realBackend{clk: clk}
}

func (b *realBackend) now() time.Time { return b.clk.Now() }

// workerGuard is owned by the runtime alone, and its finalizer retires
// the backend's parked workers.
type workerGuard struct{ be *realBackend }

// realCtx is one real process: the execution context its body runs in
// and the handle that kills it.
type realCtx struct {
	cancel chan struct{}
	killed atomic.Bool
	fn     func(ctx execCtx) // the body, until a worker takes it
}

func (c *realCtx) compute(d time.Duration) { c.sleep(d) }

func (c *realCtx) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.cancel:
	}
}

func (c *realCtx) cancelled() bool {
	select {
	case <-c.cancel:
		return true
	default:
		return false
	}
}

func (c *realCtx) kill() {
	if c.killed.CompareAndSwap(false, true) {
		close(c.cancel)
	}
}

func newRealCtx(fn func(ctx execCtx)) *realCtx {
	return &realCtx{cancel: make(chan struct{}), fn: fn}
}

// spawn hands fn to the most recently parked worker, or starts one.
// Either way the worker is readied into the spawning thread's run-next
// slot: a channel send wakes a parked receiver there, as go does a new
// goroutine, so RunAlt's spawn order decides the run order alike. (A
// worker that has joined the list but not yet parked finds fn at once
// and runs it on its own thread.)
func (b *realBackend) spawn(_ string, fn func(ctx execCtx)) procHandle {
	c := newRealCtx(fn)
	b.bodies.Add(1)
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		w := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		w <- c
		return c
	}
	b.mu.Unlock()
	b.workers.Add(1)
	go b.work(c)
	return c
}

// work is a worker goroutine: it runs c's body, then parks for the next
// until it is retired or finds the idle list full. A body that leaves
// through runtime.Goexit takes its worker with it.
func (b *realBackend) work(c *realCtx) {
	next := make(chan *realCtx, 1)
	inBody := false
	defer func() {
		if inBody {
			b.bodies.Done() // the body called runtime.Goexit
		}
		b.workers.Done()
	}()
	for c != nil {
		fn := c.fn
		c.fn = nil // the handle must not keep the body's closure alive
		inBody = true
		fn(c)
		inBody = false
		if !b.park(next) {
			return
		}
		c = <-next // nil: retired
	}
}

// park puts a worker whose body returned in the idle list, unless it is
// full or the runtime is gone, and only then counts the body done: when
// wait sees no body left, every worker is parked or on its way out.
func (b *realBackend) park(next chan *realCtx) bool {
	b.mu.Lock()
	keep := !b.closed && len(b.idle) < maxIdleWorkers
	if keep {
		b.idle = append(b.idle, next)
	}
	b.mu.Unlock()
	b.bodies.Done()
	return keep
}

// wait blocks until every spawned function has returned, then retires
// the idle workers and waits for them to exit: no backend goroutine
// outlives it. Spawning again afterwards starts new workers.
func (b *realBackend) wait() {
	b.bodies.Wait()
	b.retire(false)
	b.workers.Wait()
}

// retire wakes every parked worker to exit. With closing set no worker
// parks again: the runtime is unreachable and nothing will spawn.
func (b *realBackend) retire(closing bool) {
	b.mu.Lock()
	idle := b.idle
	b.idle = nil
	b.closed = b.closed || closing
	b.mu.Unlock()
	for _, w := range idle {
		w <- nil
	}
}

// realInbox is a mutex+notify unbounded queue. queue[head:] is what is
// queued; a dequeued slot is cleared, so a long-lived inbox keeps no
// delivered message alive, and the queue rewinds to the start of its
// array whenever it empties, so a burst reuses the array.
type realInbox struct {
	mu     sync.Mutex
	queue  []any
	head   int
	notify chan struct{}
}

func (b *realBackend) newInbox() inbox {
	return &realInbox{notify: make(chan struct{}, 1)}
}

func (q *realInbox) put(v any) {
	q.mu.Lock()
	if q.head > 0 && len(q.queue) == cap(q.queue) {
		// Full with a dequeued prefix: slide the rest down rather than
		// grow an array that is partly dead.
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue, q.head = q.queue[:n], 0
	}
	q.queue = append(q.queue, v)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *realInbox) tryGet() (any, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.queue) {
		return nil, false
	}
	v := q.queue[q.head]
	q.queue[q.head] = nil
	if q.head++; q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	return v, true
}

func (q *realInbox) get(ctx execCtx, timeout time.Duration) (any, bool) {
	rc, _ := ctx.(*realCtx)
	var timeC <-chan time.Time
	if timeout >= 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	var cancel chan struct{}
	if rc != nil {
		cancel = rc.cancel
	}
	for {
		if v, ok := q.tryGet(); ok {
			return v, true
		}
		select {
		case <-q.notify:
		case <-timeC:
			return nil, false
		case <-cancel:
			return nil, false
		}
	}
}

func (q *realInbox) drain() []any {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.queue[q.head:]
	q.queue, q.head = nil, 0
	return out
}

func (q *realInbox) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) - q.head
}

// ---------------------------------------------------------------------
// Simulated backend: discrete-event engine, virtual time.
// ---------------------------------------------------------------------

type simBackend struct {
	e *sim.Engine
}

func (b *simBackend) now() time.Time { return b.e.Now() }

type simCtx struct {
	p *sim.Proc
}

func (c *simCtx) compute(d time.Duration) { c.p.Compute(d) }
func (c *simCtx) sleep(d time.Duration)   { c.p.Sleep(d) }
func (c *simCtx) cancelled() bool         { return c.p.Killed() }

type simHandle struct {
	e *sim.Engine
	p *sim.Proc
}

func (h *simHandle) kill() { h.e.Kill(h.p) }

func (b *simBackend) spawn(name string, fn func(ctx execCtx)) procHandle {
	p := b.e.Spawn(name, func(p *sim.Proc) {
		fn(&simCtx{p: p})
	})
	return &simHandle{e: b.e, p: p}
}

// simInbox adapts sim.Chan.
type simInbox struct {
	ch *sim.Chan
}

func (b *simBackend) newInbox() inbox {
	return &simInbox{ch: b.e.NewChan()}
}

func (q *simInbox) put(v any) { q.ch.Send(v) }

func (q *simInbox) get(ctx execCtx, timeout time.Duration) (any, bool) {
	sc, ok := ctx.(*simCtx)
	if !ok {
		return nil, false
	}
	return q.ch.RecvTimeout(sc.p, timeout)
}

func (q *simInbox) drain() []any {
	out := make([]any, 0, q.ch.Len())
	for q.ch.Len() > 0 {
		v, _ := q.tryPop()
		out = append(out, v)
	}
	return out
}

func (q *simInbox) tryPop() (any, bool) {
	if q.ch.Len() == 0 {
		return nil, false
	}
	// RecvTimeout with a queued message returns immediately without
	// parking, so it is safe to call without a proc context... but the
	// signature needs one. Pop directly via a zero-timeout dance:
	// sim.Chan exposes queue semantics only through Recv, so we keep a
	// tiny shim here.
	return q.ch.PopQueued()
}

func (q *simInbox) size() int { return q.ch.Len() }
