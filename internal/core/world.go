package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/msg"
	"altrun/internal/predicate"
	"altrun/internal/sim"
)

// World is one speculative process: an address space (sink state), a
// predicate set (assumptions), and a process identity. Worlds are
// created by Runtime (roots, servers) and by RunAlt (alternatives); the
// zero value is not usable.
//
// A World's state methods must be called only from its own executing
// body. Predicates and routing metadata are internally synchronized
// because the message layer reads them from other worlds' contexts.
//
// The multiple-worlds machinery — the predicate set, its subscriptions
// and the inbox — matters only once a world communicates (§3.4), so an
// alternative's world builds it on first use (see Runtime.activate).
type World struct {
	rt    *Runtime
	pid   ids.PID
	name  string
	space *mem.AddressSpace
	ctx   execCtx
	box   inbox // built at activation

	handle procHandle

	// eliminated is set by eliminateOne, before the body is killed, and
	// never cleared: the process the kernel has killed executes nothing
	// further, so every memory, message and block operation refuses from
	// then on. It is neither Cancelled (a root cancelled by a job
	// deadline stays readable for Cleanup) nor terminated (the winner
	// and Shutdown set that too).
	eliminated atomic.Bool

	// activated is set once the world has built its inbox and published
	// its subscriptions (Runtime.activate). Written under mu; read
	// lock-free by the activation fast path.
	activated atomic.Bool

	// subPIDs lists the PIDs the world's predicate set mentioned at
	// activation — the subscription record the registry's predicate
	// index keys on. Written under mu by the activation that publishes
	// the subscriptions, read under mu by the unregistration that tears
	// them down, and never changed in between.
	subPIDs []ids.PID

	// obsSpec records whether the world was speculative at registration
	// — the flag both observer callbacks report, so a gauge of live
	// speculative worlds pairs up even though predicates resolve while
	// the world is live. Written once by publishWorld.
	obsSpec bool
	// obsSeen is true while a delivered WorldRegistered awaits its
	// WorldUnregistered (guarded by mu).
	obsSeen bool

	mu sync.Mutex
	// preds is the world's assumption set. A RunAlt child starts with
	// none: spawnParent (the parent's set when the block was entered) and
	// spawnPIDs (the block's alternatives, this world among them) are
	// what predsLocked derives it from on first use, and are dropped
	// then.
	preds       *predicate.Set
	spawnParent *predicate.Set
	spawnPIDs   []ids.PID
	deferred    []string // deferred console output (source ops)
	terminated  bool
	ownedSpace  bool // false once the parent adopted it (winner)
	// noBody marks a world with a cancellation handle but no spawned
	// goroutine (a NewRootWorld root): no exit path will release its
	// space, so Shutdown must.
	noBody bool

	// srv is the receive loop of a server version (nil for any other
	// world).
	srv *server

	// The world's record in the PID table (pidtable.go). listed is set
	// while the world is resolvable by PID (publishWorld to
	// unregisterWorld): an activation that finds it unset publishes no
	// subscriptions, so none outlives the world. parent is the world
	// whose child list holds this one. recMu serializes the writers of
	// kids, liveKids and subs; kids and subs are immutable slices,
	// republished on change and read lock-free.
	listed   atomic.Bool
	dropped  atomic.Bool // subs dropped: the PID's fate was propagated
	released atomic.Bool // the record left its slot
	parent   *World
	recMu    sync.Mutex
	liveKids int
	kids     atomic.Pointer[[]*World] // children of ours still running; nil when none
	subs     atomic.Pointer[[]*World] // worlds whose sets mention our PID

	// probe, when non-nil, receives this world's COW fault events;
	// RunAlt sets it on the children of probed blocks before their
	// bodies are spawned (so it is read race-free from the body's
	// goroutine).
	probe AltProbe
}

// PID returns the world's process identifier.
func (w *World) PID() ids.PID { return w.pid }

// Name returns the world's diagnostic name.
func (w *World) Name() string { return w.name }

// Size returns the world's address-space size in bytes.
func (w *World) Size() int64 { return w.space.Size() }

// Runtime returns the owning runtime.
func (w *World) Runtime() *Runtime { return w.rt }

// Predicates returns the world's current assumption set, activating the
// world: a delivery is decided against it.
// Sets are immutable, so the pointer is a snapshot: a later resolution
// replaces w's set and leaves this one as it was.
func (w *World) Predicates() *predicate.Set {
	w.rt.activate(w)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.preds
}

// predsLocked returns w's assumption set, deriving a RunAlt child's on
// first use: the parent's assumptions, plus "I complete, my siblings
// don't" (§3.3). w.mu must be held.
func (w *World) predsLocked() *predicate.Set {
	if w.preds != nil {
		return w.preds
	}
	var sibArr [8]ids.PID
	sibs := sibArr[:0]
	for _, p := range w.spawnPIDs {
		if p != w.pid {
			sibs = append(sibs, p)
		}
	}
	preds, err := w.spawnParent.WithComplete(w.pid)
	if err == nil {
		preds, err = preds.WithFail(sibs...)
	}
	if err != nil {
		// The block's PIDs were registered after the parent's set was
		// taken, so the set cannot already mention them.
		panic(errors.Join(errors.New("core: deriving a child's predicates"), err))
	}
	w.preds, w.spawnParent, w.spawnPIDs = preds, nil, nil
	return preds
}

// Speculative reports whether the world still runs under unresolved
// assumptions (and therefore may not touch sources, §3.4.2).
func (w *World) Speculative() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.predsLocked().Unresolved()
}

// applyResolution applies pid's fate to the predicate set, replacing
// the set when the resolution simplifies it. It returns the outcome and
// whether the set became fully resolved.
func (w *World) applyResolution(pid ids.PID, completed bool) (predicate.Outcome, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	preds, out := w.predsLocked().Resolve(pid, completed)
	w.preds = preds
	return out, out == predicate.Simplified && !preds.Unresolved()
}

// markTerminated flips the terminated flag; reports false if already
// set.
func (w *World) markTerminated() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.terminated {
		return false
	}
	w.terminated = true
	return true
}

// terminate flips the terminated flag and moves w's PID to the terminal
// fate f in one step under w.mu; reports false if already set. An
// elimination that finds w terminated returns at once, leaving the
// cascade to this caller, so w's fate must be readable by then: a
// message's sending predicate is brought up to date from fates
// (Runtime.decideFor).
func (w *World) terminate(f fate) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.terminated {
		return false
	}
	w.terminated = true
	w.rt.tab.setFate(w, f)
	return true
}

// Terminated reports whether the world has been terminated (won, lost,
// failed, or eliminated).
func (w *World) Terminated() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.terminated
}

// transferSpace marks the space as adopted by the parent so the
// world's exit path won't release it.
func (w *World) transferSpace() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ownedSpace = false
}

// discardSpace releases the world's pages if it still owns them.
func (w *World) discardSpace() {
	w.mu.Lock()
	owned := w.ownedSpace
	w.ownedSpace = false
	w.mu.Unlock()
	if owned {
		w.space.Discard()
	}
}

// exitCleanup runs (deferred) at the end of every spawned world body,
// including kill-unwinds in simulated mode.
func (w *World) exitCleanup() {
	w.discardSpace()
}

// ---------------------------------------------------------------------
// Sink state: the paged address space.
// ---------------------------------------------------------------------

// The operations below are the world's runtime interface. Each refuses
// with ErrEliminated once the world has been eliminated: one atomic load
// on the live path, and a loser stops at its next call instead of
// working on until it polls Cancelled.

// ReadAt fills buf from the world's address space at off.
func (w *World) ReadAt(buf []byte, off int64) error {
	if w.eliminated.Load() {
		return ErrEliminated
	}
	return w.space.ReadAt(buf, off)
}

// WriteAt writes buf at off. Copy-on-write faults on shared pages are
// charged to the world's simulated CPU in simulated mode.
func (w *World) WriteAt(buf []byte, off int64) error {
	if w.eliminated.Load() {
		return ErrEliminated
	}
	before := w.space.CopiedPages()
	if err := w.space.WriteAt(buf, off); err != nil {
		return err
	}
	w.recordCopies(before)
	return nil
}

// recordCopies charges COW copies performed since before and reports
// them to the block probe, if any.
func (w *World) recordCopies(before int64) {
	copies := w.space.CopiedPages() - before
	if copies <= 0 {
		return
	}
	w.rt.chargeCopies(w.ctx, copies)
	if w.probe != nil {
		w.probe.ChildFault(w.pid, copies, w.rt.be.now())
	}
}

// ReadUint64 reads a big-endian uint64 at off.
func (w *World) ReadUint64(off int64) (uint64, error) {
	if w.eliminated.Load() {
		return 0, ErrEliminated
	}
	return w.space.ReadUint64(off)
}

// WriteUint64 writes a big-endian uint64 at off (COW-charged).
func (w *World) WriteUint64(off int64, v uint64) error {
	if w.eliminated.Load() {
		return ErrEliminated
	}
	before := w.space.CopiedPages()
	if err := w.space.WriteUint64(off, v); err != nil {
		return err
	}
	w.recordCopies(before)
	return nil
}

// Snapshot returns the space contents (test/diagnostic helper, and the
// checkpoint primitive of sequential recovery blocks).
func (w *World) Snapshot() ([]byte, error) { return w.space.Snapshot() }

// RestoreSnapshot overwrites the space from a Snapshot — the
// "roll back to the state the program had before the block was
// entered" step of a sequential recovery block (§5.1).
func (w *World) RestoreSnapshot(data []byte) error {
	if w.eliminated.Load() {
		return ErrEliminated
	}
	before := w.space.CopiedPages()
	if err := w.space.Restore(data); err != nil {
		return err
	}
	w.recordCopies(before)
	return nil
}

// CopiedPages returns COW copies performed by this world.
func (w *World) CopiedPages() int64 { return w.space.CopiedPages() }

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

// Compute consumes d of CPU: processor-shared virtual time in simulated
// mode, a sleep stand-in in real mode (real bodies normally just do
// real work instead).
func (w *World) Compute(d time.Duration) {
	if w.ctx != nil {
		w.ctx.compute(d)
	}
}

// Sleep suspends the world for d without consuming CPU.
func (w *World) Sleep(d time.Duration) {
	if w.ctx != nil {
		w.ctx.sleep(d)
	}
}

// SimProc returns the simulated process executing this world's body,
// or nil in real mode (or before the body starts). Distributed commit
// adapters use it to run blocking protocols (e.g. majority-consensus
// claims) on the world's own simulated thread of control.
func (w *World) SimProc() *sim.Proc {
	if sc, ok := w.ctx.(*simCtx); ok {
		return sc.p
	}
	return nil
}

// Cancelled reports whether the world has been killed (a sibling won,
// an ancestor block resolved against it, or Cancel was called). An
// eliminated world is stopped at its next memory, message or block
// operation; a body that computes for long without one should poll
// this — Go cannot preempt a goroutine the way the paper's kernel kills
// a process.
func (w *World) Cancelled() bool {
	if w.ctx == nil {
		return false
	}
	return w.ctx.cancelled()
}

// Cancel requests cancellation of the world's executing body from
// outside — the service layer's per-job deadline/abandon hook. For a
// root world blocked in RunAlt, the block aborts with ErrEliminated
// after eliminating every child world (freeing the whole speculative
// subtree, including a child that raced the cancellation to the commit
// claim). Idempotent; safe to call from any goroutine.
func (w *World) Cancel() {
	w.mu.Lock()
	h := w.handle
	w.mu.Unlock()
	if h != nil {
		h.kill()
	}
}

// ---------------------------------------------------------------------
// IPC (§3.4).
// ---------------------------------------------------------------------

// Send routes data to the world dest, stamping the message with this
// world's current predicate set, shared rather than copied. A message
// to a server is decided by its loop for every live version. The first
// Send activates the world, and its catch-up may find that the world is
// already dead.
func (w *World) Send(dest ids.PID, data any) error {
	preds := w.Predicates()
	if w.eliminated.Load() {
		return ErrEliminated
	}
	return w.rt.deliver(w.pid, preds, dest, data)
}

// Recv dequeues the next accepted message. timeout < 0 waits forever;
// ok is false on timeout or cancellation, and at once for a server
// version, whose messages come through its handler.
func (w *World) Recv(timeout time.Duration) (msg.Message, bool) {
	w.rt.activate(w)
	if w.box == nil {
		return msg.Message{}, false
	}
	v, ok := w.box.get(w.ctx, timeout)
	if !ok {
		return msg.Message{}, false
	}
	return v.(msg.Message), true
}

// ---------------------------------------------------------------------
// Sources (§3.1, §3.4.2).
// ---------------------------------------------------------------------

// WriteConsole emits a line on the runtime's console. If the world is
// speculative the write is deferred: it is performed automatically when
// the world's assumptions resolve, or carried into the parent when the
// world wins its block ("actually performing the updates made by
// C_best, e.g., writing checks or bottling beer", §4.3).
func (w *World) WriteConsole(line string) error {
	w.rt.activate(w)
	w.mu.Lock()
	speculative := w.preds.Unresolved()
	if speculative {
		w.deferred = append(w.deferred, line)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	return w.rt.console.Write(w.pid, nil, line)
}

// ReadConsole reads buffered console input position index; buffering
// makes speculative reads idempotent (§6).
func (w *World) ReadConsole(index int) (string, error) {
	w.rt.activate(w)
	return w.rt.console.Read(index)
}

// DeferredOutput returns a copy of output lines awaiting resolution.
func (w *World) DeferredOutput() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.deferred))
	copy(out, w.deferred)
	return out
}

// inheritDeferred moves the winner's deferred output into the parent.
func (w *World) inheritDeferred(winner *World) {
	winner.mu.Lock()
	lines := winner.deferred
	winner.deferred = nil
	winner.mu.Unlock()
	w.mu.Lock()
	w.deferred = append(w.deferred, lines...)
	resolved := !w.predsLocked().Unresolved()
	w.mu.Unlock()
	if resolved {
		w.flushDeferred()
	}
}

// flushDeferred performs deferred source writes once the world is no
// longer speculative.
func (w *World) flushDeferred() {
	w.mu.Lock()
	if w.predsLocked().Unresolved() || len(w.deferred) == 0 {
		w.mu.Unlock()
		return
	}
	lines := w.deferred
	w.deferred = nil
	w.mu.Unlock()
	for _, line := range lines {
		if err := w.rt.console.Write(w.pid, nil, line); err != nil {
			// A resolved world writing a source cannot fail in this
			// model; surface loudly if it ever does.
			panic(errors.Join(errors.New("core: deferred source flush failed"), err))
		}
	}
}
