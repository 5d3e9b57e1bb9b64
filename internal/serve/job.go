package serve

import (
	"context"
	"sync"
	"time"

	"altrun/internal/core"
)

// Job describes one alternative-block job: a set of mutually exclusive
// alternatives to race in a private speculative world tree, with
// optional state seeding and result extraction. apps/recovery and
// apps/prolog provide adapters that build Jobs from recovery blocks
// and Prolog queries; raw core.Alt sets work directly.
type Job struct {
	// Kind buckets the job for latency history (jobs of one kind share
	// alternative-ordering statistics). Empty is a valid bucket.
	Kind string
	// Name labels the job in results and traces.
	Name string
	// Alts are the block's alternatives. Alternative names must be
	// stable across submissions of the same Kind for priority admission
	// to learn anything; empty names default to "alt-N".
	Alts []core.Alt
	// SpaceSize is the root world's address-space size in bytes
	// (pool default if 0).
	SpaceSize int64
	// Init seeds the root world's state before the block runs.
	Init func(w *core.World) error
	// Extract reads the job's result out of the committed state.
	Extract func(w *core.World) (any, error)
	// Cleanup, when non-nil, runs once the job is finished — on every
	// terminal path, before the root world is shut down. Adapters use it
	// to tear down resources Init created outside the root world (e.g.
	// an STM store's server-world tree), which Extract alone cannot do:
	// Extract only runs on success.
	Cleanup func(w *core.World)
	// Deadline bounds the job end to end — queue wait, budget wait,
	// and every wave (pool default if 0; negative means none). An
	// expired deadline cancels the root world, which eliminates the
	// job's whole speculative subtree.
	Deadline time.Duration
	// MaxDegree caps how many alternatives race at once for this job
	// (pool default if 0).
	MaxDegree int
	// FullCopy physically copies the root's state into each child
	// (recovery-block mode, §5.1.2) instead of COW sharing.
	FullCopy bool
	// TraceID, when non-empty, tags the job's flight-recorder timeline
	// so spans recorded on different nodes for the same logical request
	// (an rfork-forwarded job) can be stitched together.
	TraceID string
}

// Status is a job's lifecycle state.
type Status int

// Job states. Terminal states are StatusDone, StatusFailed,
// StatusTimedOut, StatusCancelled.
const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued Status = iota + 1
	// StatusRunning: a worker is executing its waves.
	StatusRunning
	// StatusDone: an alternative committed.
	StatusDone
	// StatusFailed: every alternative failed, or setup errored.
	StatusFailed
	// StatusTimedOut: the deadline expired first.
	StatusTimedOut
	// StatusCancelled: the caller abandoned the job.
	StatusCancelled
)

var statusNames = map[Status]string{
	StatusQueued:    "queued",
	StatusRunning:   "running",
	StatusDone:      "done",
	StatusFailed:    "failed",
	StatusTimedOut:  "timed-out",
	StatusCancelled: "cancelled",
}

// String renders the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return "unknown"
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusTimedOut || s == StatusCancelled
}

// JobResult is the outcome of a terminal job.
type JobResult struct {
	// Status is the terminal state.
	Status Status
	// Value is Extract's output (nil without an Extract).
	Value any
	// Winner is the committed alternative's name ("" unless Done).
	Winner string
	// WinnerIndex is the committed alternative's index into Job.Alts
	// (-1 unless Done).
	WinnerIndex int
	// Waves is how many alternative waves were spawned.
	Waves int
	// AltsUnspawned is how many alternatives were never spawned
	// because an earlier wave committed — speculation saved.
	AltsUnspawned int
	// Elapsed is submit-to-terminal wall time.
	Elapsed time.Duration
	// Err is the failure cause (nil when Done).
	Err error
}

// task is the pool's internal job state.
type task struct {
	id  uint64
	job Job

	ctx    context.Context
	cancel context.CancelFunc
	// cancelled records an explicit Ticket.Cancel, distinguishing it
	// from a deadline expiry (both surface as ctx cancellation).
	cancelled bool

	mu     sync.Mutex
	status Status
	root   *core.World // set while running
	res    JobResult

	submitted time.Time
	done      chan struct{}
	// sampled is set by the worker running the task when the flight
	// recorder samples it: done then closes only after the timeline is
	// recorded, not when the result is.
	sampled bool
}

func (t *task) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}

// state returns the task's current status and result under its lock.
func (t *task) state() (Status, JobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.res
}

// Ticket is the caller's handle on a submitted job.
type Ticket struct {
	t *task
}

// ID returns the pool-unique job ID.
func (tk *Ticket) ID() uint64 { return tk.t.id }

// Status returns the job's current state.
func (tk *Ticket) Status() Status {
	tk.t.mu.Lock()
	defer tk.t.mu.Unlock()
	return tk.t.status
}

// Cancel abandons the job: a queued job never runs; a running job's
// root world is cancelled, aborting the in-flight block and freeing its
// whole speculative subtree. Idempotent.
func (tk *Ticket) Cancel() {
	t := tk.t
	t.mu.Lock()
	t.cancelled = true
	root := t.root
	t.mu.Unlock()
	t.cancel()
	if root != nil {
		root.Cancel()
	}
}

// Wait blocks until the job is terminal (returning its result) or ctx
// ends (returning ctx.Err with a zero result). Waiting does not cancel
// the job.
func (tk *Ticket) Wait(ctx context.Context) (JobResult, error) {
	select {
	case <-tk.t.done:
	case <-ctx.Done():
		return JobResult{}, ctx.Err()
	}
	tk.t.mu.Lock()
	defer tk.t.mu.Unlock()
	return tk.t.res, nil
}

// Result returns the job's result if it is terminal.
func (tk *Ticket) Result() (JobResult, bool) {
	tk.t.mu.Lock()
	defer tk.t.mu.Unlock()
	if !tk.t.status.Terminal() {
		return JobResult{}, false
	}
	return tk.t.res, true
}
