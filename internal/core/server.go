package core

import (
	"fmt"
	"slices"
	"sync"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/msg"
	"altrun/internal/predicate"
	"altrun/internal/proc"
)

// Handler processes one accepted message against one version of the
// server's state. All durable server state must live in the world's
// address space: that is what makes the server splittable (§3.4.2) — a
// blocked receiver's continuation is "return from receive", so two COW
// copies of its address space that share that continuation are exactly
// the two receiver copies the paper creates.
type Handler func(w *World, m msg.Message)

// server is one receive loop: the FIFO inbox of a server PID and the
// ordered versions of the server's state. A version is a *World — its
// own PID, predicate set and page table — with no goroutine or inbox of
// its own: the loop decides each dequeued message once for every live
// version (spec/altcommit.tla's atomic Send(a)), and only the loop
// touches or releases a version's pages.
type server struct {
	pid     ids.PID
	name    string
	handler Handler
	box     inbox

	mu sync.Mutex
	// versions is the loop's list, in creation order: the loop appends a
	// fork and drops versions that ended; others read it under mu.
	versions []*World
	stopped  bool
	handle   procHandle
}

// SpawnServer creates a message-driven world: handler runs once per
// message a version of the server accepts. A message from a speculative
// sender that a version has made no assumptions about splits that
// version into a deny side, which keeps its PID, and an assume side, a
// new version with a fresh PID that takes the message (§3.4.2); when the
// sender's fate resolves, exactly one of the two survives. Returns the
// server's first version. Its PID is the server's address for as long as
// the server runs: a send to it, or to any live version's PID, is one
// enqueue on the server's loop, decided there for every live version.
func (rt *Runtime) SpawnServer(name string, spaceSize int64, handler Handler) *World {
	pid := rt.procs.Register(ids.None, name)
	s := &server{pid: pid, name: name, handler: handler, box: rt.be.newInbox()}
	w := &World{
		rt:         rt,
		pid:        pid,
		name:       name,
		space:      mem.New(rt.store, spaceSize),
		preds:      predicate.New(),
		ownedSpace: true,
		srv:        s,
	}
	s.versions = []*World{w}
	rt.servers.Store(pid, s)
	rt.registerWorld(w)
	// The handle is published under the lock Shutdown reads it with, and
	// the loop's first reap takes it too: a Shutdown either kills the
	// loop or stops it before it waits.
	s.mu.Lock()
	s.handle = rt.be.spawn(name, func(ctx execCtx) {
		defer rt.endServer(s)
		w.ctx = ctx
		rt.serve(s, ctx)
	})
	s.mu.Unlock()
	return w
}

// serve is the receive loop; it returns when the server is shut down or
// every version is gone. Versions forked while a message is decided are
// not asked about it again: the assume side has taken it and the deny
// side is the version that split.
func (rt *Runtime) serve(s *server, ctx execCtx) {
	for rt.reap(s) > 0 {
		item, ok := s.box.get(ctx, -1)
		m, isMsg := item.(msg.Message)
		if !ok || !isMsg {
			continue // killed, or a wake (nil) left by an elimination
		}
		for i, n := 0, len(s.versions); i < n; i++ {
			rt.decide(s, s.versions[i], m)
		}
	}
}

// decide asks the router what version v does with m and does it.
func (rt *Runtime) decide(s *server, v *World, m msg.Message) {
	if v.Terminated() {
		return // eliminated since the reap: its handler must never run
	}
	d, assume, deny := rt.decideFor(v.Predicates(), m)
	switch d {
	case predicate.Accept:
		s.handler(v, m)
	case predicate.Split:
		if nv := rt.fork(s, v, assume, deny, m.Sender); !nv.Terminated() {
			s.handler(nv, m)
		}
	}
}

// fork splits version v on a message from sender: v keeps its PID and
// takes the deny set, and a new version with a fresh PID, v's page table
// forked (O(1), copy-on-write), takes the assume set and is returned.
func (rt *Runtime) fork(s *server, v *World, assume, deny *predicate.Set, sender ids.PID) *World {
	rt.chargeFork(v.ctx, v.space.ResidentPages())
	space, err := v.space.Fork()
	if err != nil {
		// Only the loop releases a version's pages, and v is still listed.
		panic(fmt.Errorf("core: split fork: %w", err))
	}
	nv := &World{
		rt:         rt,
		pid:        rt.procs.Register(ids.None, s.name),
		name:       s.name,
		space:      space,
		preds:      assume,
		ownedSpace: true,
		srv:        s,
		ctx:        v.ctx,
	}
	rt.registerWorld(nv)
	rt.rebase(v, deny)
	rt.sel.WorldSplits.Add(1)
	rt.router.CountSplit()
	s.mu.Lock()
	s.versions = append(s.versions, nv) // a Shutdown since leaves it to endServer
	s.mu.Unlock()
	return nv
}

// reap drops the versions that ended from the loop's list, releases
// their pages, and returns how many are left.
func (rt *Runtime) reap(s *server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return 0
	}
	s.versions = slices.DeleteFunc(s.versions, func(v *World) bool {
		if !v.Terminated() {
			return false
		}
		v.discardSpace()
		return true
	})
	return len(s.versions)
}

// endServer runs when the loop returns: every version left ends and its
// pages are released.
func (rt *Runtime) endServer(s *server) {
	s.mu.Lock()
	s.stopped = true
	vs := s.versions
	s.versions = nil
	s.mu.Unlock()
	rt.servers.Delete(s.pid)
	for _, v := range vs {
		rt.endVersion(v)
		v.discardSpace()
	}
}

// endVersion ends a live version the way Shutdown ends a world: its PID
// completes, no predicate resolution is propagated, and it leaves the
// registry. Its pages are the loop's to release.
func (rt *Runtime) endVersion(v *World) {
	if v.terminate(proc.Completed) {
		rt.unregisterWorld(v)
	}
}

// normalizePreds derives from a predicate snapshot the set with every
// already-decided process fate folded in. It reports false when some
// assumption is already known false (the holder's world is dead).
func (rt *Runtime) normalizePreds(s *predicate.Set) (*predicate.Set, bool) {
	var buf [16]ids.PID
	for _, p := range s.AppendPIDs(buf[:0]) {
		st := rt.procs.Status(p)
		if !st.Terminal() {
			continue
		}
		var out predicate.Outcome
		if s, out = s.Resolve(p, st.Succeeded()); out == predicate.Contradicted {
			return nil, false
		}
	}
	return s, true
}

// Shutdown kills a server or root world (e.g., at the end of an
// experiment so a simulation can drain, or when a service-pool job
// retires its root world). It is not an elimination: no predicate
// resolution is triggered, and the world's pages are released. Shutting
// down any version of a server ends the server: its loop and every
// version.
func (rt *Runtime) Shutdown(w *World) {
	if s := w.srv; s != nil {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		s.stopped = true
		vs := slices.Clone(s.versions)
		h := s.handle
		s.mu.Unlock()
		rt.servers.Delete(s.pid)
		for _, v := range vs {
			rt.endVersion(v)
		}
		if h != nil {
			h.kill() // the loop releases the pages on its way out
		}
		return
	}
	if !w.terminate(proc.Completed) {
		return
	}
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
