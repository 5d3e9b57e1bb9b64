package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/obs"
	"altrun/internal/trace"
)

// Config tunes a Pool.
type Config struct {
	// Workers is the number of jobs executing concurrently
	// (default max(4, GOMAXPROCS)).
	Workers int
	// SpecTokens is the speculation budget: the machine-wide bound on
	// live speculative worlds (default GOMAXPROCS at NewPool: one token
	// per core, so a saturated box falls through to one alternative at
	// a time instead of time-slicing losers against the winner). An
	// explicit budget is honoured as given, even above the core count:
	// an alternative blocked in a sleep or I/O holds its token without
	// using a core.
	SpecTokens int
	// MaxDegree caps how many alternatives one job races at once
	// (default 4); Job.MaxDegree may lower it per job.
	MaxDegree int
	// QueueDepth bounds the admission queue; a full queue rejects
	// submissions with ErrQueueFull (default 256).
	QueueDepth int
	// DefaultDeadline applies to jobs that set none (0 = unbounded).
	DefaultDeadline time.Duration
	// Runtime, when non-nil, is the real-mode runtime to execute on;
	// the pool installs itself as its world observer. Nil builds a
	// private runtime.
	Runtime *core.Runtime
	// NewClaim, when non-nil, supplies the commit arbiter for each
	// job's alternative block — e.g. a distributed majority-consensus
	// claim keyed per job so a block submitted to one node commits
	// across the peer group. Nil keeps the local in-process arbiter.
	NewClaim func(job Job, id uint64) core.ClaimFunc
	// Recorder, when non-nil, samples jobs into the speculation flight
	// recorder: each sampled job's block becomes a causal timeline with
	// the paper's setup/runtime/selection decomposition and measured vs
	// predicted PI (predictions come from the pool's EWMA history).
	Recorder *obs.Recorder
	// Adapt turns on the adaptive speculation controller (policy.go):
	// per-job sequential-vs-speculative decisions, degree selection and
	// bandit spawn ordering. False keeps the static policy.
	Adapt bool
}

// defaultSpaceSize is the root-world size for jobs that set none.
const defaultSpaceSize = 64 << 10

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = max(4, runtime.GOMAXPROCS(0))
	}
	if c.SpecTokens <= 0 {
		c.SpecTokens = runtime.GOMAXPROCS(0)
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// PoolStats is a point-in-time view of the pool for /metrics.
type PoolStats struct {
	trace.PoolSnapshot
	Workers         int   `json:"workers"`
	SpecTokens      int   `json:"spec_tokens"`
	MaxDegree       int   `json:"max_degree"`
	QueueDepth      int   `json:"queue_depth"`
	Queued          int   `json:"queued"`
	Running         int   `json:"running"`
	TokensInUse     int   `json:"tokens_in_use"`
	TokensHighWater int   `json:"tokens_high_water"`
	TokenWaits      int64 `json:"budget_waits"`
}

// Pool is the admission-controlled job executor. Create with NewPool;
// the zero value is not usable.
type Pool struct {
	cfg    Config
	rt     *core.Runtime
	budget *Budget
	hist   *History
	ctl    *Controller // nil: the static policy

	counters trace.PoolCounters
	running  atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *task
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   uint64
	tasks    map[uint64]*task
}

// NewPool builds a pool, installs it as the runtime's world observer,
// and starts its workers. Call Drain (or Close) to stop it.
func NewPool(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	rt := cfg.Runtime
	if rt == nil {
		rt = core.New(core.Config{})
	}
	if rt.Engine() != nil {
		return nil, errors.New("serve: pool requires a real-mode runtime")
	}
	p := &Pool{
		cfg:    cfg,
		rt:     rt,
		budget: NewBudget(cfg.SpecTokens),
		hist:   NewHistory(),
		queue:  make(chan *task, cfg.QueueDepth),
		tasks:  make(map[uint64]*task),
	}
	if cfg.Adapt {
		p.ctl = newController(p.hist)
	}
	// Close the PI feedback loop: every sampled block's measured
	// overhead (setup+selection+sched) feeds the history's per-kind
	// overhead EWMA, which both the controller's decisions and the
	// folded PI predictions read.
	cfg.Recorder.SetOverheadHook(p.hist.RecordOverhead)
	p.baseCtx, p.baseCancel = context.WithCancel(context.Background())
	rt.SetWorldObserver(p)
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.queue {
				p.runTask(t)
			}
		}()
	}
	return p, nil
}

// Runtime returns the runtime jobs execute on.
func (p *Pool) Runtime() *core.Runtime { return p.rt }

// History returns the pool's winner-latency history (for priority
// admission introspection).
func (p *Pool) History() *History { return p.hist }

// Recorder returns the pool's flight recorder (nil when not recording).
func (p *Pool) Recorder() *obs.Recorder { return p.cfg.Recorder }

// PolicyStats snapshots the adaptive controller's decision counters.
func (p *Pool) PolicyStats() PolicyStats { return p.ctl.Stats() }

// WorldRegistered implements core.WorldObserver: it meters the live
// speculative worlds the budget must bound.
func (p *Pool) WorldRegistered(_ ids.PID, speculative bool) {
	if speculative {
		p.counters.SpecEnter()
	}
}

// WorldUnregistered implements core.WorldObserver.
func (p *Pool) WorldUnregistered(_ ids.PID, speculative bool) {
	if speculative {
		p.counters.SpecExit()
	}
}

// Stats snapshots the pool's counters and gauges.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		PoolSnapshot:    p.counters.Snapshot(),
		Workers:         p.cfg.Workers,
		SpecTokens:      p.budget.Capacity(),
		MaxDegree:       p.cfg.MaxDegree,
		QueueDepth:      p.cfg.QueueDepth,
		Queued:          len(p.queue),
		Running:         int(p.running.Load()),
		TokensInUse:     p.budget.InUse(),
		TokensHighWater: p.budget.HighWater(),
		TokenWaits:      p.budget.Waits(),
	}
}

// Submit runs the job through admission control: it is rejected when
// the pool is draining (ErrDraining) or the queue is full
// (ErrQueueFull), otherwise queued and executed by the next free
// worker.
func (p *Pool) Submit(j Job) (*Ticket, error) {
	if len(j.Alts) == 0 {
		return nil, fmt.Errorf("serve: job %q has no alternatives", j.Name)
	}
	deadline := j.Deadline
	if deadline == 0 {
		deadline = p.cfg.DefaultDeadline
	}
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		p.counters.JobsRejected.Add(1)
		return nil, ErrDraining
	}
	p.nextID++
	t := &task{
		id:        p.nextID,
		job:       j,
		status:    StatusQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if deadline > 0 {
		t.ctx, t.cancel = context.WithTimeout(p.baseCtx, deadline)
	} else {
		t.ctx, t.cancel = context.WithCancel(p.baseCtx)
	}
	select {
	case p.queue <- t:
	default:
		p.mu.Unlock()
		t.cancel()
		p.counters.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	p.tasks[t.id] = t
	p.mu.Unlock()
	p.counters.JobsSubmitted.Add(1)
	return &Ticket{t: t}, nil
}

// Ticket returns the handle for a previously submitted job.
func (p *Pool) Ticket(id uint64) (*Ticket, error) {
	p.mu.Lock()
	t, ok := p.tasks[id]
	p.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	return &Ticket{t: t}, nil
}

// Forget drops a terminal job from the pool's index (the daemon calls
// it after a result is fetched, so the index doesn't grow forever).
func (p *Pool) Forget(id uint64) {
	p.mu.Lock()
	if t, ok := p.tasks[id]; ok && func() bool { t.mu.Lock(); defer t.mu.Unlock(); return t.status.Terminal() }() {
		delete(p.tasks, id)
	}
	p.mu.Unlock()
}

// Drain stops admission and waits for queued and in-flight jobs to
// finish, or for ctx to end (returning its error with jobs still
// running). Safe to call more than once.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every job — queued and in-flight, aborting their
// speculative subtrees — and then drains.
func (p *Pool) Close(ctx context.Context) error {
	p.baseCancel()
	p.mu.Lock()
	for _, t := range p.tasks {
		t.mu.Lock()
		root := t.root
		t.mu.Unlock()
		if root != nil {
			root.Cancel()
		}
	}
	p.mu.Unlock()
	return p.Drain(ctx)
}

// finishTask applies a terminal result exactly once, stamping elapsed
// time and counters, and resolves the ticket — unless the task is
// sampled, whose ticket runTask resolves once the timeline is recorded.
func (p *Pool) finishTask(t *task, res JobResult) {
	t.mu.Lock()
	if t.status.Terminal() {
		t.mu.Unlock()
		return
	}
	res.Elapsed = time.Since(t.submitted)
	t.status = res.Status
	t.res = res
	t.mu.Unlock()
	t.cancel()
	// Count the job before its waiter wakes, so Stats read after Wait
	// includes it.
	switch res.Status {
	case StatusDone:
		p.counters.JobsCompleted.Add(1)
	case StatusTimedOut:
		p.counters.JobsTimedOut.Add(1)
	case StatusCancelled:
		p.counters.JobsCancelled.Add(1)
	default:
		p.counters.JobsFailed.Add(1)
	}
	if !t.sampled {
		close(t.done)
	}
}

// ctxResult maps a job context's end into a terminal result.
func (t *task) ctxResult() JobResult {
	t.mu.Lock()
	explicit := t.cancelled
	t.mu.Unlock()
	if !explicit && errors.Is(t.ctx.Err(), context.DeadlineExceeded) {
		return JobResult{Status: StatusTimedOut, WinnerIndex: -1, Err: ErrDeadline}
	}
	return JobResult{Status: StatusCancelled, WinnerIndex: -1, Err: ErrCancelled}
}

// runTask executes one job: root world, priority-ordered waves through
// the speculation budget, commit or exhaustion.
func (p *Pool) runTask(t *task) {
	if tkStatus(t).Terminal() {
		return // cancelled while queued
	}
	p.running.Add(1)
	defer p.running.Add(-1)
	t.setStatus(StatusRunning)
	j := t.job
	if t.ctx.Err() != nil {
		p.finishTask(t, t.ctxResult())
		return
	}

	// Flight recorder: nil-safe throughout — br is nil for unsampled
	// jobs (or without a recorder) and every obs call below no-ops.
	br := p.cfg.Recorder.StartBlock(j.Kind, j.Name, t.id, j.TraceID)
	var predMean, predBest, predOvh time.Duration
	decision := "static"
	if br != nil {
		// The first defer, so it runs last: after Cleanup and the root's
		// Shutdown, and after finishTask recorded the result. The ticket
		// resolves only then, so Wait never returns before the timeline
		// exists.
		t.sampled = true
		defer func() {
			st, res := t.state()
			br.Finish(obs.Outcome{
				Status:            st.String(),
				Winner:            res.Winner,
				Decision:          decision,
				PredictedMean:     predMean,
				PredictedBest:     predBest,
				PredictedOverhead: predOvh,
			})
			close(t.done)
		}()
	}

	spaceSize := j.SpaceSize
	if spaceSize <= 0 {
		spaceSize = defaultSpaceSize
	}
	root, err := p.rt.NewRootWorld("job:"+j.Name, spaceSize)
	if err != nil {
		p.finishTask(t, JobResult{Status: StatusFailed, WinnerIndex: -1, Err: err})
		return
	}
	// Retire the root (registration + pages) whatever happens: a
	// service must not leak a world per request.
	defer p.rt.Shutdown(root)
	if j.Cleanup != nil {
		// LIFO with the Shutdown defer above: Cleanup sees the root
		// still live, on success and failure paths alike.
		defer j.Cleanup(root)
	}
	t.mu.Lock()
	t.root = root
	t.mu.Unlock()
	// Wire the job's deadline/cancellation into sibling elimination:
	// when the context ends, the root is cancelled and the in-flight
	// block tears down its whole speculative subtree.
	stopAfter := context.AfterFunc(t.ctx, root.Cancel)
	defer stopAfter()

	if j.Init != nil {
		if err := j.Init(root); err != nil {
			p.finishTask(t, JobResult{Status: StatusFailed, WinnerIndex: -1, Err: fmt.Errorf("init: %w", err)})
			return
		}
	}

	names := make([]string, len(j.Alts))
	for i := range j.Alts {
		names[i] = j.Alts[i].Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("alt-%d", i+1)
		}
	}

	maxDegree := p.cfg.MaxDegree
	if j.MaxDegree > 0 && j.MaxDegree < maxDegree {
		maxDegree = j.MaxDegree
	}

	// Admission plan. Static: priority admission, historically-fastest
	// alternatives first, full-width waves. Adaptive: the controller
	// decides whether this job speculates at all (sequential
	// fall-through when predicted PI is below threshold), how wide, and
	// in what (bandit-ranked) order.
	var remaining []int
	width := maxDegree
	if p.ctl.Enabled() {
		dec := p.ctl.Decide(j.Kind, names, maxDegree)
		remaining = dec.Order
		width = dec.Degree
		decision = dec.Kind.String()
		predMean, predBest, predOvh = dec.PredMean, dec.PredBest, dec.PredOverhead
	} else {
		remaining = p.hist.Order(j.Kind, names)
		if br != nil {
			// Read the EWMA estimates before the block runs: this is
			// the PI prediction the measured wall time is compared
			// against.
			predMean, predBest, predOvh, _ = p.hist.Predict(j.Kind, names)
		}
	}

	// One claim per job, shared across waves: if a wave fails without
	// claiming, the next wave races for the same (still unclaimed) key.
	var claim core.ClaimFunc
	if p.cfg.NewClaim != nil {
		claim = p.cfg.NewClaim(j, t.id)
	}

	// The history observer rides every wave (stacked under the flight
	// recorder's sampled probe): plays, per-alternative latency, and
	// failure attribution feed the bandit ranking and the PI model.
	observer := newAltObserver(p.hist, j.Kind)

	waves := 0
	for len(remaining) > 0 {
		want := min(len(remaining), width)
		got, err := p.budget.Acquire(t.ctx, want)
		if err != nil {
			p.finishTask(t, t.ctxResult())
			return
		}
		wave := make([]core.Alt, got)
		waveIdx := remaining[:got]
		for i, idx := range waveIdx {
			wave[i] = j.Alts[idx]
			wave[i].Name = names[idx]
		}
		remaining = remaining[got:]
		waves++
		p.counters.Waves.Add(1)
		if waves > 1 {
			p.counters.LazyWaves.Add(1)
		}

		wr := br.StartWave(got)
		res, err := root.RunAlt(core.Options{
			SyncElimination: true, // losers are gone before tokens free
			FullCopy:        j.FullCopy,
			Claim:           claim,
			Probe:           core.FanoutProbe(observer, wr.Probe()),
		}, wave...)
		p.budget.Release(got)
		wr.End(err)

		switch {
		case err == nil:
			// The winner's latency was already folded into the history
			// by the wave observer (spawn→win, the same τ the probe
			// reported to the flight recorder).
			winIdx := waveIdx[res.Index]
			p.counters.AltsUnspawned.Add(int64(len(remaining)))
			out := JobResult{
				Status:        StatusDone,
				Winner:        names[winIdx],
				WinnerIndex:   winIdx,
				Waves:         waves,
				AltsUnspawned: len(remaining),
			}
			if j.Extract != nil {
				v, xerr := j.Extract(root)
				if xerr != nil {
					p.finishTask(t, JobResult{Status: StatusFailed, WinnerIndex: -1, Waves: waves,
						Err: fmt.Errorf("extract: %w", xerr)})
					return
				}
				out.Value = v
			}
			p.finishTask(t, out)
			return
		case errors.Is(err, core.ErrAllFailed):
			// Lazy spawn: the admitted wave failed; the next wave runs
			// the alternatives speculation throttling had deferred.
			continue
		case errors.Is(err, core.ErrEliminated), errors.Is(err, core.ErrTimeout):
			// The root was cancelled (deadline or abandon) and the
			// subtree is already torn down.
			res := t.ctxResult()
			res.Waves = waves
			p.finishTask(t, res)
			return
		default:
			p.finishTask(t, JobResult{Status: StatusFailed, WinnerIndex: -1, Waves: waves, Err: err})
			return
		}
	}
	p.finishTask(t, JobResult{Status: StatusFailed, WinnerIndex: -1, Waves: waves, Err: core.ErrAllFailed})
}

func tkStatus(t *task) Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}
