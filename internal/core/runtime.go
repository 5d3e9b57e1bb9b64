// Package core implements the paper's contribution: transparent
// concurrent execution of mutually exclusive alternatives (§2-§3).
//
// A World is a speculative process: a private copy-on-write address
// space (its sink state), a predicate set (the assumptions it runs
// under), and a process identity. World.RunAlt executes an alternative
// block — the ALTBEGIN/ENSURE/WITH/OR/FAIL construct of Figure 1 —
// by spawning one child world per alternative, selecting the first
// successful one ("fastest first"), absorbing its state into the parent
// via an atomic page-map swap, and eliminating its siblings. The
// semantics visible to an observer are exactly those of a sequential
// nondeterministic selection of one alternative (§4.3).
//
// The runtime runs in two modes. Real mode executes alternatives as
// goroutines against the wall clock — the mode a library user adopts.
// Simulated mode executes them as discrete-event processes with a
// machine cost model (fork, page-copy, elimination, network), which is
// how the paper's experiments are reproduced deterministically. Go
// cannot kill a goroutine the way the paper's kernel kills a process, so
// elimination is enforced where the world meets the runtime: once a
// world has been eliminated, its memory, message and block operations
// return ErrEliminated, and pure computation between two such calls
// should poll World.Cancelled. The paper itself permits asynchronous
// elimination, so this changes overhead, not semantics.
package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/clock"
	"altrun/internal/device"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/msg"
	"altrun/internal/page"
	"altrun/internal/predicate"
	"altrun/internal/proc"
	"altrun/internal/sim"
	"altrun/internal/trace"
)

// Errors returned by alternative blocks.
var (
	// ErrAllFailed is the block's FAIL outcome: every alternative's
	// guard failed (Figure 1).
	ErrAllFailed = errors.New("core: all alternatives failed")
	// ErrTimeout means alt_wait's TIMEOUT elapsed before any
	// alternative succeeded (§3.2).
	ErrTimeout = errors.New("core: alternative block timed out")
	// ErrGuardFailed is the implicit error when an alternative's guard
	// evaluates false.
	ErrGuardFailed = errors.New("core: guard not satisfied")
	// ErrEliminated means the executing world was eliminated (a sibling
	// committed, or an ancestor block resolved against it): every
	// memory, message and block operation of an eliminated world returns
	// it, and so does RunAlt when the caller is cancelled while waiting.
	ErrEliminated = errors.New("core: world eliminated")
	// ErrNotServer is returned when the message layer must split a
	// world that is not a restartable server (see SpawnServer).
	ErrNotServer = errors.New("core: world cannot be split (not a server)")
)

// Config configures a real-mode runtime.
type Config struct {
	// PageSize for the page store; 0 selects page.DefaultPageSize.
	PageSize int
	// Clock supplies time; nil selects the wall clock.
	Clock clock.Clock
	// Trace enables event tracing.
	Trace bool
	// TraceCap bounds the trace log to a ring of the most recent
	// TraceCap events (overwritten events are counted, see
	// trace.Log.Dropped). 0 keeps the log unbounded — the mode
	// experiments want; long-running daemons should set a cap.
	TraceCap int
	// LockedRegistry selects the legacy RWMutex-sharded world registry
	// instead of the lock-free default — the A/B baseline selbench
	// compares against (see registry.go).
	LockedRegistry bool
}

// SimConfig configures a simulated runtime.
type SimConfig struct {
	// Profile is the machine cost model. Its PageSize is used for the
	// page store.
	Profile sim.MachineProfile
	// CPUs overrides Profile.CPUs when > 0.
	CPUs int
	// Trace enables event tracing.
	Trace bool
	// TraceCap bounds the trace log as in Config.TraceCap.
	TraceCap int
	// LockedRegistry selects the legacy registry as in
	// Config.LockedRegistry.
	LockedRegistry bool
}

// WorldObserver observes world registration and unregistration — the
// hook a service layer uses to meter the machine-wide population of
// live speculative worlds (the τ(overhead) driver of §4.2) without the
// runtime knowing anything about admission control. Callbacks run
// synchronously on the registering/unregistering goroutine and must be
// fast and non-blocking.
type WorldObserver interface {
	// WorldRegistered fires when a world becomes live. speculative
	// reports whether it entered with unresolved assumptions (an
	// alternative-block child), as opposed to a root or server world.
	WorldRegistered(pid ids.PID, speculative bool)
	// WorldUnregistered fires when a registered world leaves the
	// registry (commit, failure, elimination, split, or shutdown),
	// with the same speculative flag its registration reported. It
	// fires exactly once per delivered WorldRegistered.
	WorldUnregistered(pid ids.PID, speculative bool)
}

// Runtime owns the worlds, the page store, the process registry, and
// the message router.
type Runtime struct {
	be      backend
	realBE  *realBackend // non-nil in real mode
	eng     *sim.Engine  // non-nil in sim mode
	profile *sim.MachineProfile

	store   *page.Store
	procs   *proc.Table
	router  *msg.Router
	log     *trace.Log
	console *device.Console

	// reg is the sharded world registry: live worlds and the predicate
	// subscription index (see registry.go; lock-free by default, RWMutex
	// baseline behind Config.LockedRegistry). sel counts the
	// selection-path work.
	reg worldRegistry
	sel trace.SelCounters

	// propPool recycles propagation queues so elimination cascades are
	// allocation-free in steady state.
	propPool sync.Pool

	// observer, when set, is notified of world registration and
	// unregistration (see WorldObserver).
	observer atomic.Pointer[worldObserverBox]

	// claimFactory, when set, supplies the default commit arbiter for
	// alternative blocks that don't pass an explicit Options.Claim —
	// e.g. a distributed majority-consensus claim (§3.2.1). It is
	// consulted once per RunAlt with the parent world.
	claimFactory atomic.Pointer[claimFactoryBox]
}

// worldObserverBox wraps the observer interface so it can live in an
// atomic.Pointer.
type worldObserverBox struct{ o WorldObserver }

// claimFactoryBox wraps a claim factory so it can live in an
// atomic.Pointer.
type claimFactoryBox struct {
	f func(parent *World) ClaimFunc
}

// SetClaimFactory installs (or, with nil, removes) the runtime-wide
// default commit arbiter. Blocks that pass Options.Claim are
// unaffected. The factory receives the parent world of each block and
// returns the ClaimFunc its children race through; returning nil falls
// back to the built-in local arbiter.
func (rt *Runtime) SetClaimFactory(f func(parent *World) ClaimFunc) {
	if f == nil {
		rt.claimFactory.Store(nil)
		return
	}
	rt.claimFactory.Store(&claimFactoryBox{f: f})
}

// propQueue is a reusable propagation work queue.
type propQueue struct {
	items []propEvent
}

// New returns a real-mode runtime.
func New(cfg Config) *Runtime {
	be := newRealBackend(cfg.Clock)
	rt := newRuntime(page.NewStore(cfg.PageSize), cfg.Trace, cfg.TraceCap, cfg.LockedRegistry)
	rt.be = be
	rt.realBE = be
	rt.finishInit()
	return rt
}

// NewSim returns a simulated runtime with the given machine profile.
func NewSim(cfg SimConfig) *Runtime {
	cpus := cfg.Profile.CPUs
	if cfg.CPUs > 0 {
		cpus = cfg.CPUs
	}
	eng := sim.New(cpus)
	rt := newRuntime(page.NewStore(cfg.Profile.PageSize), cfg.Trace, cfg.TraceCap, cfg.LockedRegistry)
	rt.be = &simBackend{e: eng}
	rt.eng = eng
	profile := cfg.Profile
	rt.profile = &profile
	rt.finishInit()
	return rt
}

func newRuntime(store *page.Store, traced bool, traceCap int, lockedReg bool) *Runtime {
	rt := &Runtime{store: store}
	rt.reg = newRegistry(&rt.sel, lockedReg)
	rt.propPool.New = func() any {
		return &propQueue{items: make([]propEvent, 0, 64)}
	}
	if traced {
		if traceCap > 0 {
			rt.log = trace.NewLogCapped(traceCap)
		} else {
			rt.log = trace.NewLog()
		}
	}
	rt.procs = proc.NewTable(&ids.Generator{})
	return rt
}

// SetWorldObserver installs (or, with nil, removes) the world lifecycle
// observer. Install it before the worlds of interest are created:
// unregistration is only reported for worlds whose registration the
// observer saw, so a gauge built from the callbacks never goes
// negative.
func (rt *Runtime) SetWorldObserver(o WorldObserver) {
	if o == nil {
		rt.observer.Store(nil)
		return
	}
	rt.observer.Store(&worldObserverBox{o: o})
}

func (rt *Runtime) worldObserver() WorldObserver {
	if b := rt.observer.Load(); b != nil {
		return b.o
	}
	return nil
}

func (rt *Runtime) finishInit() {
	rt.router = msg.NewRouter(rt.be.now, rt.log)
	rt.console = device.NewConsole(rt.be.now, rt.log)
	if rt.log != nil {
		// Mirror page-store events into the trace so the layered-table
		// behavior (faults, chain folds) is observable in experiment
		// traces. Only wired when tracing: the hook sits on the fault
		// path.
		rt.store.SetHook(func(kind page.HookKind, pg int64) {
			switch kind {
			case page.HookAlloc:
				rt.log.Addf(rt.be.now(), trace.KindPageFault, ids.None, "alloc page %d", pg)
			case page.HookCopy:
				rt.log.Addf(rt.be.now(), trace.KindPageFault, ids.None, "cow-copy page %d", pg)
			case page.HookCompaction:
				rt.log.Addf(rt.be.now(), trace.KindCompaction, ids.None, "folded %d layers", pg)
			}
		})
	}
}

// Engine returns the simulation engine (nil in real mode).
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Profile returns the machine profile (nil in real mode).
func (rt *Runtime) Profile() *sim.MachineProfile { return rt.profile }

// Store returns the page store (for sharing/copy accounting).
func (rt *Runtime) Store() *page.Store { return rt.store }

// Procs returns the process registry.
func (rt *Runtime) Procs() *proc.Table { return rt.procs }

// Log returns the trace log (nil unless tracing was enabled).
func (rt *Runtime) Log() *trace.Log { return rt.log }

// Console returns the runtime's source device.
func (rt *Runtime) Console() *device.Console { return rt.console }

// LiveWorlds returns the number of registered worlds (root and
// speculative). Diagnostic/metrics path — it walks every registry
// shard, so the selection path never calls it.
func (rt *Runtime) LiveWorlds() int { return len(rt.reg.snapshotWorlds()) }

// MsgStats returns the message-layer decision counters.
func (rt *Runtime) MsgStats() msg.Stats { return rt.router.Stats() }

// SelStats returns the selection-path counters: resolutions applied,
// subscribers visited (the affected sets), eliminations, registry
// shard contention, and alias fast-path hits.
func (rt *Runtime) SelStats() trace.SelSnapshot { return rt.sel.Snapshot() }

// Now returns the runtime's current time (virtual in sim mode).
func (rt *Runtime) Now() time.Time { return rt.be.now() }

// Run drives a simulated runtime to completion. It is an error to call
// it in real mode.
func (rt *Runtime) Run() error {
	if rt.eng == nil {
		return errors.New("core: Run is only valid in simulated mode")
	}
	return rt.eng.Run()
}

// Wait blocks until all real-mode goroutines have exited. It is a
// no-op in simulated mode.
func (rt *Runtime) Wait() {
	if rt.realBE != nil {
		rt.realBE.wait()
	}
}

// NewRootWorld creates a non-speculative top-level world whose body
// runs on the caller's goroutine (real mode only). The root's predicate
// set is empty: it may touch sources freely.
//
// The root carries a cancellation handle even though it has no spawned
// goroutine: World.Cancel kills its context, which aborts an in-flight
// RunAlt (eliminating the whole child subtree) — the per-job
// cancellation hook of the service layer.
func (rt *Runtime) NewRootWorld(name string, spaceSize int64) (*World, error) {
	if rt.realBE == nil {
		return nil, errors.New("core: NewRootWorld is only valid in real mode; use GoRoot")
	}
	pid := rt.procs.Register(ids.None, name)
	h := &realHandle{cancel: make(chan struct{})}
	w := &World{
		rt:         rt,
		pid:        pid,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		box:        rt.be.newInbox(),
		ownedSpace: true,
		ctx:        &realCtx{clk: rt.realBE.clk, cancel: h.cancel},
		handle:     h,
		noBody:     true,
	}
	rt.registerWorld(w)
	return w, nil
}

// GoRoot spawns a non-speculative top-level world running body
// (simulated mode, or detached real-mode roots). Call Run (sim) or
// Wait (real) afterwards.
func (rt *Runtime) GoRoot(name string, spaceSize int64, body func(w *World)) *World {
	pid := rt.procs.Register(ids.None, name)
	w := &World{
		rt:         rt,
		pid:        pid,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		box:        rt.be.newInbox(),
		ownedSpace: true,
	}
	rt.registerWorld(w)
	w.handle = rt.be.spawn(name, func(ctx execCtx) {
		w.ctx = ctx
		// Note: no exitCleanup — a root's space outlives its body so
		// callers can inspect the final state.
		body(w)
		w.markTerminated()
		if err := rt.procs.SetStatus(w.pid, proc.Completed); err == nil {
			rt.propagate([]propEvent{{resolvePID: pid, completed: true}})
		}
		rt.unregisterWorld(w)
	})
	return w
}

// registerWorld makes w resolvable and addressable, and subscribes it
// to the fate of every PID its predicate set mentions. The subscription
// list is fixed here: after registration a predicate set only ever
// shrinks (resolution removes satisfied assumptions, §3.4.2), so the
// index stays a superset of the world's live assumptions until it is
// unregistered.
//
// After publishing, registerWorld catches up on assumptions that
// resolved while w was being built (e.g. a split copy whose sender was
// eliminated between performSplit's status check and here). Every
// resolver sets the proc status terminal *before* snapshotting
// subscribers, and we add w to the index *before* reading statuses, so
// each resolution reaches w at least one way: through the index (w was
// visible at the snapshot) or through this catch-up (the status was
// terminal by the time we look). Double delivery is harmless —
// resolving a PID a set no longer mentions is a no-op.
func (rt *Runtime) registerWorld(w *World) {
	w.subPIDs = w.preds.AppendPIDs(w.subPIDs[:0])
	w.obsSpec = w.preds.Unresolved()
	if o := rt.worldObserver(); o != nil {
		// Mark and notify before publishing: once w is visible anyone may
		// eliminate it (as may the catch-up below), and its unregistration
		// must pair with, and follow, this registration.
		w.obsSeen = true
		o.WorldRegistered(w.pid, w.obsSpec)
	}
	rt.reg.addWorld(w)
	rt.router.Register(w)
	for _, p := range w.subPIDs {
		st := rt.procs.Status(p)
		if !st.Terminal() || st == proc.Forked {
			continue // unresolved (a fork's copies carry its obligations)
		}
		outcome, nowResolved := w.applyResolution(p, st.Succeeded())
		switch outcome {
		case predicate.Contradicted:
			if rt.log != nil {
				rt.log.Addf(rt.be.now(), trace.KindContradiction, w.pid,
					"assumption about %v failed", p)
			}
			rt.propagate([]propEvent{{eliminate: w}})
			return
		case predicate.Simplified:
			if nowResolved {
				w.flushDeferred()
			}
		}
	}
}

// unregisterWorld removes w from the registry, its subscription
// buckets, and the router.
func (rt *Runtime) unregisterWorld(w *World) {
	rt.reg.removeWorld(w)
	rt.router.Unregister(w.pid)
	w.mu.Lock()
	seen := w.obsSeen
	w.obsSeen = false
	w.mu.Unlock()
	if seen {
		if o := rt.worldObserver(); o != nil {
			o.WorldUnregistered(w.pid, w.obsSpec)
		}
	}
}

func (rt *Runtime) worldByPID(pid ids.PID) *World {
	return rt.reg.world(pid)
}

// split reports whether pid was replaced by split copies (§3.4.2: "two
// copies of the receiver are created"). Lock-free; the guard in front of
// every send's copy walk.
func (rt *Runtime) split(pid ids.PID) bool {
	return rt.procs.Status(pid) == proc.Forked
}

// appendCopies appends the live server worlds that stand in for the
// split receiver dest. A split registers its copies as the original's
// children in the process table before the original turns Forked, so the
// alias graph is the child index below Forked nodes: follow it down to
// the registered leaves. The table retires a lineage's edges when its
// last copy ends; the walk then finds nothing, as it does when every
// copy is dead. The caller has already established split(dest).
func (rt *Runtime) appendCopies(buf []*World, dest ids.PID) []*World {
	var stackArr [16]ids.PID
	stack := rt.procs.AppendChildren(stackArr[:0], dest)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !rt.split(p) {
			if w := rt.reg.world(p); w != nil {
				// isServer: a handler may have run a block of its own,
				// whose losers are the original's children too until they
				// are reaped.
				if w.isServer {
					buf = append(buf, w)
				}
				continue
			}
			// Not registered: it ended — or it forked since the check
			// above (a fork turns Forked before it is unregistered), and
			// then its copies are the targets.
			if !rt.split(p) {
				continue
			}
		}
		stack = rt.procs.AppendChildren(stack, p)
	}
	return buf
}

// Copies returns the live worlds reachable from pid through
// split-receiver aliases — pid's own world if it never split, else the
// surviving copies. Experiment harnesses use it to audit and shut down
// server trees.
func (rt *Runtime) Copies(pid ids.PID) []*World {
	if !rt.split(pid) {
		if w := rt.reg.world(pid); w != nil {
			return []*World{w}
		}
		return nil
	}
	return rt.appendCopies(nil, pid)
}

// sendFrom routes data from a sender (with predicate snapshot) to dest,
// expanding split-receiver aliases. The overwhelmingly common case —
// dest never split — is one status load on top of the router send.
// senderPreds is handed to the router as is and shared, read-only, by
// every copy the message fans out to.
func (rt *Runtime) sendFrom(sender ids.PID, senderPreds *predicate.Set, dest ids.PID, data any) error {
	if !rt.split(dest) {
		rt.sel.AliasFastPath.Add(1)
		if err := rt.router.Send(sender, senderPreds, dest, data); err != nil {
			if errors.Is(err, msg.ErrUnknownReceiver) {
				return msg.ErrUnknownReceiver
			}
			return err
		}
		return nil
	}
	rt.sel.AliasWalks.Add(1)
	var buf [8]*World
	targets := rt.appendCopies(buf[:0], dest)
	if len(targets) == 0 {
		return msg.ErrUnknownReceiver
	}
	var firstErr error
	for _, t := range targets {
		if err := rt.router.Send(sender, senderPreds, t.pid, data); err != nil {
			if errors.Is(err, msg.ErrUnknownReceiver) {
				continue // target died between expansion and send
			}
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// propEvent is a unit of work for the propagation engine: either an
// elimination of a world or the resolution of a process's fate.
type propEvent struct {
	eliminate  *World
	resolvePID ids.PID
	completed  bool
}

// propagate applies eliminations and predicate resolutions
// transitively: eliminating a world resolves its PID as failed, which
// may contradict other worlds' assumptions (killing, e.g., the
// assume-copy of a split receiver), which eliminates them, and so on
// (§3.2.1, §3.4.2).
//
// Each resolution event visits only the worlds subscribed to the
// resolved PID — the affected set — so the cost of a commit cascade is
// O(Σ affected sets), independent of how many unrelated worlds are
// live. The work queue is recycled and the child/subscriber lookups use
// stack buffers, so steady-state cascades do not allocate.
func (rt *Runtime) propagate(events []propEvent) {
	if len(events) == 0 {
		return
	}
	q := rt.propPool.Get().(*propQueue)
	q.items = append(q.items[:0], events...)
	var subBuf [16]*World
	var childBuf [16]ids.PID
	for head := 0; head < len(q.items); head++ {
		ev := q.items[head]
		if ev.eliminate != nil {
			w := ev.eliminate
			if !rt.eliminateOne(w) {
				continue
			}
			q.items = append(q.items, propEvent{resolvePID: w.pid, completed: false})
			// Cascade to the world's live descendants: a dead parent's
			// in-flight alternative block must not leave orphans.
			for _, cp := range rt.procs.AppendChildren(childBuf[:0], w.pid) {
				if cw := rt.reg.world(cp); cw != nil {
					q.items = append(q.items, propEvent{eliminate: cw})
				}
			}
			continue
		}
		rt.sel.Resolutions.Add(1)
		subs := rt.reg.appendSubscribers(subBuf[:0], ev.resolvePID)
		rt.sel.SubscribersVisited.Add(int64(len(subs)))
		for _, w := range subs {
			outcome, nowResolved := w.applyResolution(ev.resolvePID, ev.completed)
			switch outcome {
			case predicate.Contradicted:
				if rt.log != nil {
					rt.log.Addf(rt.be.now(), trace.KindContradiction, w.pid,
						"assumption about %v failed", ev.resolvePID)
				}
				q.items = append(q.items, propEvent{eliminate: w})
			case predicate.Simplified:
				if nowResolved {
					w.flushDeferred()
				}
			}
		}
		// The resolved PID's fate is final (identifiers are never
		// reused): its bucket can never be consulted again.
		rt.reg.dropBucket(ev.resolvePID)
	}
	clear(q.items) // drop *World references before pooling
	q.items = q.items[:0]
	rt.propPool.Put(q)
}

// eliminateOne terminates one world; reports false if it was already
// terminated. Space pages are released by the world's own exit path.
func (rt *Runtime) eliminateOne(w *World) bool {
	if !w.markTerminated() {
		return false
	}
	// The trap: from here on the world's own runtime calls refuse.
	w.eliminated.Store(true)
	rt.sel.Eliminations.Add(1)
	_ = rt.procs.SetStatus(w.pid, proc.Eliminated)
	rt.unregisterWorld(w)
	w.mu.Lock()
	h := w.handle
	noBody := w.noBody
	w.mu.Unlock()
	if h != nil {
		h.kill()
	}
	if h == nil || noBody {
		// Not spawned yet (or a bodiless root): nobody else will
		// release its pages. If a spawn is racing us, it observes the
		// terminated flag after setting the handle and kills it
		// (discard is idempotent).
		w.discardSpace()
	}
	if rt.log != nil {
		rt.log.Add(rt.be.now(), trace.KindEliminate, w.pid, w.name)
	}
	return true
}

// chargeFork bills the simulated setup cost of forking an address
// space with the given number of resident pages (§4.1 item 1, §4.3
// "setup").
func (rt *Runtime) chargeFork(ctx execCtx, pages int) {
	if rt.profile == nil || ctx == nil {
		return
	}
	ctx.compute(rt.profile.ForkCost(pages))
}

// chargeCopies bills COW write faults (§4.3 "runtime").
func (rt *Runtime) chargeCopies(ctx execCtx, copies int64) {
	if rt.profile == nil || ctx == nil || copies <= 0 {
		return
	}
	ctx.compute(rt.profile.CopyCost(int(copies)))
}

// chargeElimination bills issuing elimination instructions for k
// siblings (§4.1 item 2, §4.3 "selection").
func (rt *Runtime) chargeElimination(ctx execCtx, k int) {
	if rt.profile == nil || ctx == nil || k <= 0 {
		return
	}
	ctx.compute(time.Duration(k) * rt.profile.CommitPerSibling)
}
