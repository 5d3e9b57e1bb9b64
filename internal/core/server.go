package core

import (
	"fmt"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/msg"
	"altrun/internal/predicate"
	"altrun/internal/proc"
	"altrun/internal/trace"
)

// Handler processes one accepted message against the server's world
// state. All durable server state must live in the world's address
// space: that is what makes the server splittable (§3.4.2) — a blocked
// receiver's continuation is "return from receive", so two COW copies
// of its address space, both re-entering the receive loop, are exactly
// the two receiver copies the paper creates.
type Handler func(w *World, m msg.Message)

// splitRequest is the control item the router enqueues when a message
// needs the receiver to fork (processed between handler invocations so
// state is never duplicated mid-update).
type splitRequest struct {
	assume *predicate.Set
	deny   *predicate.Set
	m      msg.Message
}

// SpawnServer creates a message-driven world: handler runs once per
// accepted message. Messages from speculative senders that the server
// has made no assumptions about split the server into an assume-copy
// and a deny-copy (§3.4.2); when the sender's fate resolves, exactly
// one copy survives. Returns the server's world (its PID is its
// address; messages sent to it after a split fan out to its live
// copies).
func (rt *Runtime) SpawnServer(name string, spaceSize int64, handler Handler) *World {
	pid := rt.procs.Register(ids.None, name)
	w := &World{
		rt:         rt,
		pid:        pid,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		box:        rt.be.newInbox(),
		ownedSpace: true,
		isServer:   true,
		serverFn:   handler,
	}
	rt.registerWorld(w)
	rt.spawnServerLoop(w)
	return w
}

// spawnServerLoop starts (or restarts, for split copies) the receive
// loop.
func (rt *Runtime) spawnServerLoop(w *World) {
	// The handle is published under the lock the loop's first Terminated
	// check takes: a Shutdown or elimination never finds a running loop
	// without a handle (it would release the pages under the handler).
	w.mu.Lock()
	handle := rt.be.spawn(w.name, func(ctx execCtx) {
		w.ctx = ctx
		defer w.exitCleanup()
		rt.serverLoop(w)
	})
	w.handle = handle
	dead := w.terminated
	w.mu.Unlock()
	if dead {
		// Eliminated before the handle existed (a registration-time
		// contradiction): the loop must not outlive the world.
		handle.kill()
	}
}

// serverLoop drains the inbox: data messages go to the handler; a
// split request replaces this server with two copies and ends the
// loop.
func (rt *Runtime) serverLoop(w *World) {
	for {
		v, ok := w.box.get(w.ctx, -1)
		if !ok || w.Terminated() {
			// Killed (eliminated or runtime shutdown). The terminated
			// check matters when messages were queued before the kill
			// landed: an eliminated copy's handler must never run —
			// its effects could never be observed anyway (§3.4.2), and
			// its pages may already be released.
			return
		}
		switch item := v.(type) {
		case msg.Message:
			w.serverFn(w, item)
		case splitRequest:
			if rt.performSplit(w, item) {
				return
			}
		}
	}
}

// performSplit replaces w with an assume-copy and a deny-copy. It runs
// in w's own context, between handler invocations. Because the request
// was queued, the world may have moved on since the router decided:
// the sender may have resolved, or the server's own predicates may
// have changed. performSplit therefore re-decides against current
// state; it reports false when no split happened (message handled
// directly, or dropped) so the loop continues.
func (rt *Runtime) performSplit(w *World, req splitRequest) bool {
	senderPreds, live := rt.normalizePreds(req.m.SenderPredicates)
	if !live {
		return false // the sender's assumptions already failed: dead-world message
	}
	switch rt.procs.Status(req.m.Sender) {
	case proc.Failed, proc.Eliminated:
		return false // sender's world is dead
	case proc.Completed:
		// complete(sender) is now TRUE: accept without assumptions.
		w.serverFn(w, req.m)
		return false
	}
	current := w.Predicates()
	switch predicate.Decide(current, senderPreds) {
	case predicate.Accept:
		w.serverFn(w, req.m)
		return false
	case predicate.Ignore:
		return false
	}
	assumeSet, denySet, err := predicate.SplitWorlds(current, senderPreds, req.m.Sender)
	if err != nil {
		return false // cannot coherently assume either outcome
	}
	req.assume, req.deny = assumeSet, denySet

	pending := w.box.drain()

	// Publish order: the copies are registered (as w's children, which is
	// what makes them its alias targets), then the edge becomes visible
	// (w turns Forked), and only after the queue has been re-routed does
	// the original leave the registry.
	assume := rt.cloneServer(w, w.name+"+", req.assume)
	deny := rt.cloneServer(w, w.name+"-", req.deny)
	if !w.markTerminated() {
		// w was eliminated or shut down while it was splitting, so it
		// never turns Forked and nothing can reach its copies: they end
		// with it.
		rt.Shutdown(assume)
		rt.Shutdown(deny)
		return true
	}
	rt.procs.SetStatus(w.pid, proc.Forked) //nolint:errcheck // terminated was ours to set

	// The triggering message goes to the assume-copy only: accepting it
	// is precisely what the extra assumptions buy (§3.4.2).
	assume.box.put(req.m)

	// Re-route anything else that was queued: each copy re-decides
	// under its own predicates (the assume-copy implies everything the
	// original accepted; the deny-copy may now ignore some).
	for _, item := range pending {
		var m msg.Message
		switch it := item.(type) {
		case msg.Message:
			m = it
		case splitRequest:
			m = it.m
		default:
			continue
		}
		for _, copyPID := range []ids.PID{assume.pid, deny.pid} {
			// Ignore unknown-receiver errors: a copy may already have
			// been contradicted and eliminated.
			_ = rt.router.Send(m.Sender, m.SenderPredicates, copyPID, m.Data)
		}
	}

	rt.unregisterWorld(w)
	if rt.log != nil {
		rt.log.Addf(rt.be.now(), trace.KindWorldSplit, w.pid,
			"split into %v (assume) and %v (deny) on message from %v",
			assume.pid, deny.pid, req.m.Sender)
	}
	rt.spawnServerLoop(assume)
	rt.spawnServerLoop(deny)
	return true
}

// normalizePreds derives from a predicate snapshot the set with every
// already-decided process fate folded in. It reports false when some
// assumption is already known false (the holder's world is dead).
func (rt *Runtime) normalizePreds(s *predicate.Set) (*predicate.Set, bool) {
	var buf [16]ids.PID
	for _, p := range s.AppendPIDs(buf[:0]) {
		st := rt.procs.Status(p)
		if !st.Terminal() || st == proc.Forked {
			continue // unresolved (a fork's copies carry its obligations)
		}
		var out predicate.Outcome
		if s, out = s.Resolve(p, st.Succeeded()); out == predicate.Contradicted {
			return nil, false
		}
	}
	return s, true
}

// cloneServer builds one split copy: COW-forked space, given predicate
// set, same handler.
func (rt *Runtime) cloneServer(w *World, name string, preds *predicate.Set) *World {
	rt.chargeFork(w.ctx, w.space.ResidentPages())
	space, err := w.space.Fork()
	if err != nil {
		// Fork of a live table cannot fail unless the world is already
		// released, which performSplit's single-threaded discipline
		// prevents.
		panic(fmt.Errorf("core: split fork: %w", err))
	}
	pid := rt.procs.Register(w.pid, name)
	cw := &World{
		rt:         rt,
		pid:        pid,
		name:       name,
		space:      space,
		preds:      preds,
		box:        rt.be.newInbox(),
		ownedSpace: true,
		isServer:   true,
		serverFn:   w.serverFn,
	}
	rt.registerWorld(cw)
	return cw
}

// Shutdown kills a server or root world (e.g., at the end of an
// experiment so a simulation can drain, or when a service-pool job
// retires its root world). It is not an elimination: no predicate
// resolution is triggered, and the world's pages are released.
func (rt *Runtime) Shutdown(w *World) {
	if !w.markTerminated() {
		return
	}
	rt.procs.SetStatus(w.pid, proc.Completed) //nolint:errcheck
	rt.unregisterWorld(w)
	w.mu.Lock()
	h := w.handle
	noBody := w.noBody
	w.mu.Unlock()
	if h != nil {
		h.kill()
	}
	if h == nil || noBody {
		// No spawned goroutine owns the exit path: release here.
		w.discardSpace()
	}
}
