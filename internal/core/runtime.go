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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/device"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/msg"
	"altrun/internal/page"
	"altrun/internal/predicate"
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
}

// SimConfig configures a simulated runtime.
type SimConfig struct {
	// Profile is the machine cost model. Its PageSize is used for the
	// page store.
	Profile sim.MachineProfile
	// CPUs overrides Profile.CPUs when > 0.
	CPUs int
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

// Runtime owns the worlds, the page store, the PID table, and the
// message router.
type Runtime struct {
	be      backend
	realBE  *realBackend // non-nil in real mode
	workers *workerGuard // non-nil in real mode
	eng     *sim.Engine  // non-nil in sim mode
	profile *sim.MachineProfile

	store   *page.Store
	router  *msg.Router
	console *device.Console

	// tab is the PID table: every PID's fate and, while it is in use,
	// its world, child list and subscribers (see pidtable.go). sel
	// counts the selection-path work.
	tab pidTable
	sel trace.SelCounters

	// propPool recycles propagation queues so elimination cascades are
	// allocation-free in steady state.
	propPool sync.Pool

	// observer, when set, is notified of world registration and
	// unregistration (see WorldObserver).
	observer atomic.Pointer[worldObserverBox]

	// servers maps a running server's address to its receive loop, for
	// the sends that find no live world under it: the version that holds
	// the address may be gone while the server runs on.
	servers sync.Map // ids.PID → *server
}

// worldObserverBox wraps the observer interface so it can live in an
// atomic.Pointer.
type worldObserverBox struct{ o WorldObserver }

// propQueue is a reusable propagation work queue.
type propQueue struct {
	items []propEvent
}

// New returns a real-mode runtime.
func New(cfg Config) *Runtime {
	be := &realBackend{}
	rt := newRuntime(page.NewStore(cfg.PageSize))
	rt.be = be
	rt.realBE = be
	// The parked workers hold the backend, not the runtime: a runtime
	// dropped without Wait retires them when it is collected. The
	// finalizer sits on a guard only the runtime points at, as the
	// runtime's own cycles (world → runtime) would keep it from running.
	rt.workers = &workerGuard{be: be}
	runtime.SetFinalizer(rt.workers, func(g *workerGuard) { g.be.retire(true) })
	return rt
}

// NewSim returns a simulated runtime with the given machine profile.
func NewSim(cfg SimConfig) *Runtime {
	cpus := cfg.Profile.CPUs
	if cfg.CPUs > 0 {
		cpus = cfg.CPUs
	}
	eng := sim.New(cpus)
	rt := newRuntime(page.NewStore(cfg.Profile.PageSize))
	rt.be = &simBackend{e: eng}
	rt.eng = eng
	profile := cfg.Profile
	rt.profile = &profile
	return rt
}

func newRuntime(store *page.Store) *Runtime {
	rt := &Runtime{
		store:   store,
		router:  msg.NewRouter(),
		console: device.NewConsole(),
	}
	rt.propPool.New = func() any {
		return &propQueue{items: make([]propEvent, 0, 64)}
	}
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

// Engine returns the simulation engine (nil in real mode).
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Profile returns the machine profile (nil in real mode).
func (rt *Runtime) Profile() *sim.MachineProfile { return rt.profile }

// Store returns the page store (for sharing/copy accounting).
func (rt *Runtime) Store() *page.Store { return rt.store }

// Console returns the runtime's source device.
func (rt *Runtime) Console() *device.Console { return rt.console }

// LiveWorlds returns the number of registered worlds (root and
// speculative). Diagnostic/metrics path — it walks the PID table, so
// the selection path never calls it.
func (rt *Runtime) LiveWorlds() int {
	n := 0
	rt.tab.each(func(w *World) {
		if w.listed.Load() {
			n++
		}
	})
	return n
}

// Processes returns the number of PIDs the runtime has issued: every
// world it created, live or ended.
func (rt *Runtime) Processes() int { return int(rt.tab.issued.Load()) }

// ChildLists returns the number of worlds whose child list is not empty
// (diagnostic: it walks the PID table). A quiescent runtime returns to 0
// — every block's children ended.
func (rt *Runtime) ChildLists() int {
	n := 0
	rt.tab.each(func(w *World) {
		if w.kids.Load() != nil {
			n++
		}
	})
	return n
}

// MsgStats returns the message-layer decision counters.
func (rt *Runtime) MsgStats() msg.Stats { return rt.router.Stats() }

// SelStats returns the selection-path counters: resolutions applied,
// subscribers visited (the affected sets), eliminations, contradictions
// and server world splits.
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

// Wait blocks until every real-mode body has returned and the idle
// worker goroutines have exited. It is a no-op in simulated mode.
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
	c := newRealCtx(nil)
	w := &World{
		rt:         rt,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		ownedSpace: true,
		ctx:        c,
		handle:     c,
		noBody:     true,
	}
	rt.tab.add(w)
	rt.registerWorld(w)
	return w, nil
}

// GoRoot spawns a non-speculative top-level world running body
// (simulated mode, or detached real-mode roots). Call Run (sim) or
// Wait (real) afterwards.
func (rt *Runtime) GoRoot(name string, spaceSize int64, body func(w *World)) *World {
	w := &World{
		rt:         rt,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		ownedSpace: true,
	}
	rt.tab.add(w)
	rt.registerWorld(w)
	w.handle = rt.be.spawn(name, func(ctx execCtx) {
		w.ctx = ctx
		// Note: no exitCleanup — a root's space outlives its body so
		// callers can inspect the final state.
		body(w)
		w.markTerminated()
		if rt.tab.setFate(w, fateCompleted) {
			rt.propagate([]propEvent{{resolvePID: w.pid, completed: true}})
		}
		rt.unregisterWorld(w)
	})
	return w
}

// registerWorld publishes w and activates it at once: roots and server
// versions are built with their predicate set and communicate from the
// start.
func (rt *Runtime) registerWorld(w *World) {
	rt.publishWorld(w)
	rt.activate(w)
}

// publishWorld makes w resolvable and addressable: an elimination
// cascade or a send can reach it from here on. A RunAlt child stops
// here until it activates.
func (rt *Runtime) publishWorld(w *World) {
	// A RunAlt child has no set yet; it assumes its own completion.
	w.obsSpec = w.preds == nil || w.preds.Unresolved()
	if o := rt.worldObserver(); o != nil {
		// Mark and notify before publishing: once w is visible anyone may
		// eliminate it (as may its activation's catch-up), and its
		// unregistration must pair with, and follow, this registration.
		w.obsSeen = true
		o.WorldRegistered(w.pid, w.obsSpec)
	}
	w.listed.Store(true)
}

// activate builds w's inbox (a server version has none: its messages
// come through its server's loop) and subscribes w to the fate of every PID
// its predicate set mentions, once. The subscription list is fixed
// here (but for a server version's deny side, see rebase): from now on
// the set only ever shrinks (resolution removes
// satisfied assumptions, §3.4.2), so the index stays a superset of the
// world's live assumptions until it is unregistered. Before a RunAlt
// child activates, its own block eliminates it directly (§3.2.1), and an
// ancestor's elimination reaches it through its parent's child list.
//
// After subscribing, activate catches up on assumptions that resolved
// before: a child's set is derived from its parent's set as it was
// when the block was entered, and a forked version's sender may have
// been eliminated since its loop folded in the fates it knew.
// Every resolver sets the fate terminal *before* snapshotting
// subscribers, and we add w to the buckets *before* reading fates, so
// each resolution reaches w at least one way: through a bucket (w was
// visible at the snapshot) or through this catch-up (the fate was
// terminal by the time we look). A PID whose record was released is
// terminal already, so finding no bucket to join is safe. Double
// delivery is harmless — resolving a PID a set no longer mentions is a
// no-op.
//
// Subscriptions are published under w.mu, and unregisterWorld unlists
// the world before it reads them under w.mu: an activation racing the
// unregistration either subscribes first, and the unregistration tears
// it down, or finds the world unlisted and subscribes nothing.
func (rt *Runtime) activate(w *World) {
	if w.activated.Load() {
		return
	}
	w.mu.Lock()
	if w.activated.Load() {
		w.mu.Unlock()
		return
	}
	preds := w.predsLocked()
	if w.box == nil && w.srv == nil {
		w.box = rt.be.newInbox()
	}
	if w.listed.Load() {
		w.subPIDs = preds.AppendPIDs(nil)
		rt.tab.subscribe(w, w.subPIDs)
	}
	subs := w.subPIDs
	w.activated.Store(true)
	w.mu.Unlock()
	rt.catchUp(w, subs)
}

// rebase replaces the set of w, an activated server version, with preds
// — the deny side of a split, which assumes more than w did — and moves
// w's subscriptions to the PIDs preds mentions, under w.mu as activate
// publishes them. It then catches up as activate does, which also
// re-resolves what preds, derived from an older snapshot of w's set,
// may still mention.
func (rt *Runtime) rebase(w *World, preds *predicate.Set) {
	w.mu.Lock()
	w.preds = preds
	if w.listed.Load() {
		old := w.subPIDs
		w.subPIDs = preds.AppendPIDs(nil)
		rt.tab.subscribe(w, w.subPIDs)
		rt.tab.unsubscribe(w, slices.DeleteFunc(old, func(p ids.PID) bool {
			return slices.Contains(w.subPIDs, p)
		}))
	}
	subs := w.subPIDs
	w.mu.Unlock()
	rt.catchUp(w, subs)
}

// catchUp applies to w the fates among pids that are already decided,
// eliminating w if one contradicts it.
func (rt *Runtime) catchUp(w *World, pids []ids.PID) {
	for _, p := range pids {
		f := rt.tab.fate(p)
		if !f.terminal() {
			continue
		}
		outcome, nowResolved := w.applyResolution(p, f.succeeded())
		switch outcome {
		case predicate.Contradicted:
			rt.sel.Contradictions.Add(1)
			rt.propagate([]propEvent{{eliminate: w}})
			return
		case predicate.Simplified:
			if nowResolved {
				w.flushDeferred()
			}
		}
	}
}

// unregisterWorld unlists w and removes it from its subscription
// buckets. Its record stays in the PID table until release.
func (rt *Runtime) unregisterWorld(w *World) {
	rt.tab.unlist(w)
	w.mu.Lock()
	subs := w.subPIDs
	seen := w.obsSeen
	w.obsSeen = false
	w.mu.Unlock()
	rt.tab.unsubscribe(w, subs)
	if seen {
		if o := rt.worldObserver(); o != nil {
			o.WorldUnregistered(w.pid, w.obsSpec)
		}
	}
}

func (rt *Runtime) worldByPID(pid ids.PID) *World {
	return rt.tab.world(pid)
}

// Copies returns the live versions of the server pid addresses (its
// address or any live version's PID), in order, or pid's own world if it
// is no server. Experiment harnesses use it to audit server state.
func (rt *Runtime) Copies(pid ids.PID) []*World {
	w, s := rt.lookup(pid)
	if s == nil {
		if w == nil {
			return nil
		}
		return []*World{w}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*World
	for _, v := range s.versions {
		if !v.Terminated() {
			live = append(live, v)
		}
	}
	return live
}

// lookup resolves pid to its live world, or to the receive loop of the
// server it addresses (then w may be nil).
func (rt *Runtime) lookup(pid ids.PID) (w *World, s *server) {
	if w = rt.tab.world(pid); w != nil {
		return w, w.srv
	}
	if v, ok := rt.servers.Load(pid); ok {
		return nil, v.(*server)
	}
	return nil, nil
}

// deliver routes data from a sender (with predicate snapshot) to pid. A
// server's message is one enqueue on its loop, which decides it for
// every version; any other world is resolved in the PID table and handed
// to the router for the accept/ignore decision. A pid with no live world
// is msg.ErrUnknownReceiver, and one that would have to split to take
// the message is ErrNotServer.
func (rt *Runtime) deliver(sender ids.PID, senderPreds *predicate.Set, pid ids.PID, data any) error {
	w, s := rt.lookup(pid)
	if s != nil {
		s.box.put(rt.router.Stamp(sender, senderPreds, pid, data))
		return nil
	}
	if w == nil {
		return msg.ErrUnknownReceiver
	}
	rcvPred := w.Predicates() // activates w, building its inbox
	m := rt.router.Stamp(sender, senderPreds, pid, data)
	switch d, _, _ := rt.decideFor(rcvPred, m); d {
	case predicate.Accept:
		w.box.put(m)
	case predicate.Split:
		return ErrNotServer
	}
	return nil
}

// decideFor asks the router what a receiver holding rcvPred does with m,
// against m's sending predicate with the fates decided since it was
// taken folded in: a message sent while a commit's cascade is still on
// its way to its sender must not look more speculative than it is. The
// fates are read after rcvPred was: every fate the receiver's set has
// taken in is then in the sender's too, so a receiver that assumed the
// sender and everything it assumed still finds them implied.
func (rt *Runtime) decideFor(rcvPred *predicate.Set, m msg.Message) (predicate.Decision, *predicate.Set, *predicate.Set) {
	senderPred, live := rt.normalizePreds(m.SenderPredicates)
	if !live {
		senderPred = nil // the sender's world is dead: an ignore
	}
	return rt.router.Decide(rcvPred, senderPred, m)
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
// live. The work queue is recycled and the subscriber lookup uses a
// stack buffer, so steady-state cascades do not allocate.
func (rt *Runtime) propagate(events []propEvent) {
	if len(events) == 0 {
		return
	}
	q := rt.propPool.Get().(*propQueue)
	q.items = append(q.items[:0], events...)
	var subBuf [16]*World
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
			if kids := w.kids.Load(); kids != nil {
				for _, cw := range *kids {
					if cw.listed.Load() {
						q.items = append(q.items, propEvent{eliminate: cw})
					}
				}
			}
			continue
		}
		rt.sel.Resolutions.Add(1)
		subs := rt.tab.appendSubscribers(subBuf[:0], ev.resolvePID)
		rt.sel.SubscribersVisited.Add(int64(len(subs)))
		for _, w := range subs {
			outcome, nowResolved := w.applyResolution(ev.resolvePID, ev.completed)
			switch outcome {
			case predicate.Contradicted:
				rt.sel.Contradictions.Add(1)
				q.items = append(q.items, propEvent{eliminate: w})
			case predicate.Simplified:
				if nowResolved {
					w.flushDeferred()
				}
			}
		}
		// The resolved PID's fate is final (identifiers are never
		// reused): its bucket can never be consulted again.
		rt.tab.dropBucket(ev.resolvePID)
	}
	clear(q.items) // drop *World references before pooling
	q.items = q.items[:0]
	rt.propPool.Put(q)
}

// eliminateOne terminates one world; reports false if it was already
// terminated. Space pages are released by the world's own exit path.
func (rt *Runtime) eliminateOne(w *World) bool {
	w.mu.Lock()
	if w.terminated {
		w.mu.Unlock()
		return false
	}
	// As in terminate, and with the trap set in the same step: from here
	// on the world's own runtime calls refuse, and a concurrent
	// elimination that finds it terminated finds it eliminated.
	w.terminated = true
	w.eliminated.Store(true)
	rt.tab.setFate(w, fateEliminated)
	w.mu.Unlock()
	rt.sel.Eliminations.Add(1)
	rt.unregisterWorld(w)
	w.mu.Lock()
	h := w.handle
	noBody := w.noBody
	w.mu.Unlock()
	if h != nil {
		h.kill()
	}
	if w.srv != nil {
		// A server version: its loop releases the pages, woken by a nil.
		w.srv.box.put(nil)
	} else if h == nil || noBody {
		// Not spawned yet (or a bodiless root): nobody else will
		// release its pages. If a spawn is racing us, it observes the
		// terminated flag after setting the handle and kills it
		// (discard is idempotent).
		w.discardSpace()
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
