package core

import (
	"sync"
	"sync/atomic"

	"altrun/internal/ids"
)

// This file is the runtime's one PID table. Predicates are "lists of
// process identifiers" whose value changes "as processes change status"
// (§3.3); the table is where that status lives, next to everything
// selection — commit, sibling elimination, predicate resolution
// (§3.2.1, §3.4.2) — looks up by PID:
//
//   - a fate per PID: two bits packed into its segment, moved to a
//     terminal value by one CAS;
//   - while the PID is in use, a record in its slot. The record is the
//     PID's World: its live flag (world), its parent (the child index),
//     its live-only child list and its subscriber bucket — the worlds
//     whose predicate sets mention the PID. A resolution visits exactly
//     its subscribers; worlds with no stake in the resolved process are
//     never touched.
//
// PIDs are dense integers issued here, so the table is a directory of
// fixed-size segments indexed by PID: a reader does two atomic loads and
// nothing else — no hash, no probe, no lock. Writers of a record's list
// and bucket serialize on that record's own mutex and republish an
// immutable slice.
//
// A record leaves its slot once its PID is terminal, its world is
// unlisted, its bucket has been propagated and dropped and its child
// list is empty (release); from then on the PID is two bits. Each of
// those four events re-checks the rest after making its own change, so
// the last of them sees all four and releases. A segment whose records
// are all released drops its slot array. Fates are never dropped: a
// message stamp or a predicate set may name any resolved PID.
//
// A world is recorded when its PID is issued, listed when it becomes
// resolvable (Runtime.publishWorld) and subscribes only when it
// activates (Runtime.activate): at registration for roots, servers and
// split copies, and on first use — a send, a receive, a delivery,
// console access — for an alternative-block child, whose own siblings
// its block eliminates directly. Its assumption universe is fixed at
// activation (resolution only ever removes assumptions, §3.4.2); the
// subscriptions are torn down at unregistration or when the subject
// PID resolves. A child that never communicates never subscribes.
//
// The table implements the registry of spec/altcommit.tla; see DESIGN
// §10 for the action↔function mapping.

// fate is a process's lifecycle state. A process ends in exactly one of
// fateCompleted, fateFailed and fateEliminated, and a terminal fate
// absorbs: the CAS that makes a fate terminal wins forever.
type fate uint8

const (
	// fateUnknown is never stored: it is what a PID the table has not
	// issued reads as.
	fateUnknown fate = iota
	// fateRunning: issued and not yet terminal.
	fateRunning
	// fateCompleted: finished and won its synchronization (or had none).
	fateCompleted
	// fateFailed: its guard failed or it aborted.
	fateFailed
	// fateEliminated: a sibling won and this process was killed (§3.2.1).
	fateEliminated
)

func (f fate) terminal() bool { return f >= fateCompleted }

// succeeded reports whether a terminal fate counts as completing for
// predicate resolution: failed and eliminated both do not (§3.2.1).
func (f fate) succeeded() bool { return f == fateCompleted }

const (
	segShift = 12 // 4 096 PIDs per segment
	segSize  = 1 << segShift
	segMask  = segSize - 1
	// fatesPerWord is how many 2-bit fates one fate word packs.
	fatesPerWord = 16
)

// pidTable is the PID table. Its zero value is empty and ready to use.
type pidTable struct {
	issued atomic.Int64 // the last PID handed out
	// dir is the segment directory: segment i holds PIDs
	// i·segSize+1 … (i+1)·segSize. It only grows; an entry is written
	// before the header that covers it is published.
	dir atomic.Pointer[[]*segment]
	mu  sync.Mutex // serializes directory growth
}

// segment holds the fates and records of segSize consecutive PIDs.
type segment struct {
	fates [segSize / fatesPerWord]atomic.Uint32 // 2 bits per PID, running = 0
	// recs is the slot array, nil once every record is released.
	recs atomic.Pointer[[segSize]atomic.Pointer[World]]
	held atomic.Int32 // slots not yet released
}

// slot returns pid's index within its segment.
func slot(pid ids.PID) uint { return uint(pid-1) & segMask }

// segmentOf returns pid's segment, or nil when pid is not positive or
// its segment does not exist yet. Lock-free.
func (t *pidTable) segmentOf(pid ids.PID) *segment {
	if pid <= 0 {
		return nil
	}
	i := uint64(pid-1) >> segShift
	if d := t.dir.Load(); d != nil && i < uint64(len(*d)) {
		return (*d)[i]
	}
	return nil
}

// grow returns the segment of pid, creating it and every segment below
// it that is missing.
func (t *pidTable) grow(pid ids.PID) *segment {
	if s := t.segmentOf(pid); s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []*segment
	if p := t.dir.Load(); p != nil {
		d = *p
	}
	for i := uint64(pid-1) >> segShift; uint64(len(d)) <= i; {
		s := &segment{}
		s.recs.Store(new([segSize]atomic.Pointer[World]))
		s.held.Store(segSize)
		d = append(d, s) // past every published length: no reader sees the write
	}
	t.dir.Store(&d)
	return d[(pid-1)>>segShift]
}

// add issues w a fresh PID and records it.
func (t *pidTable) add(w *World) {
	w.pid = ids.PID(t.issued.Add(1))
	t.grow(w.pid).recs.Load()[slot(w.pid)].Store(w)
}

// addBlock records the worlds of one alternative block and appends them
// to parent's child list at once. kids becomes part of that list and
// must not change afterwards.
func (t *pidTable) addBlock(parent *World, kids []*World) {
	for _, w := range kids {
		w.parent = parent
		t.add(w)
	}
	parent.recMu.Lock()
	defer parent.recMu.Unlock()
	parent.liveKids += len(kids)
	if old := parent.kids.Load(); old != nil {
		// Keep the children still running and drop those that ended.
		next := make([]*World, 0, parent.liveKids)
		for _, c := range *old {
			if !t.fate(c.pid).terminal() {
				next = append(next, c)
			}
		}
		kids = append(next, kids...)
	}
	parent.kids.Store(&kids)
}

// rec returns pid's record, or nil when it has none (not issued, or
// released). Lock-free: two atomic loads after the directory's.
func (t *pidTable) rec(pid ids.PID) *World {
	s := t.segmentOf(pid)
	if s == nil {
		return nil
	}
	recs := s.recs.Load()
	if recs == nil {
		return nil
	}
	return recs[slot(pid)].Load()
}

// world returns the listed world for pid, or nil. Lock-free.
func (t *pidTable) world(pid ids.PID) *World {
	if w := t.rec(pid); w != nil && w.listed.Load() {
		return w
	}
	return nil
}

// fate returns pid's fate: fateUnknown for a PID never issued. Lock-free
// and allocation-free.
func (t *pidTable) fate(pid ids.PID) fate {
	if pid <= 0 || int64(pid) > t.issued.Load() {
		return fateUnknown
	}
	s := t.segmentOf(pid)
	if s == nil {
		return fateRunning // issued a moment ago; its segment is being made
	}
	n := slot(pid)
	return fateRunning + fate(s.fates[n/fatesPerWord].Load()>>(2*(n%fatesPerWord))&3)
}

// setFate moves w's PID to the terminal fate f and reports whether its
// fate is f now: false when a different terminal fate got there first.
// The transition is one CAS, so concurrent resolvers race and exactly
// one wins. The winner takes w out of its parent's live child count.
func (t *pidTable) setFate(w *World, f fate) bool {
	n := slot(w.pid)
	word := &t.segmentOf(w.pid).fates[n/fatesPerWord]
	shift := 2 * (n % fatesPerWord)
	bits := uint32(f - fateRunning)
	for {
		old := word.Load()
		if cur := old >> shift & 3; cur != 0 {
			return cur == bits // idempotent, or another fate absorbed it
		}
		if word.CompareAndSwap(old, old|bits<<shift) {
			break
		}
	}
	if p := w.parent; p != nil {
		p.recMu.Lock()
		p.liveKids--
		emptied := p.liveKids == 0
		if emptied {
			p.kids.Store(nil)
		}
		p.recMu.Unlock()
		if emptied {
			t.release(p)
		}
	}
	t.release(w)
	return true
}

// unlist makes w unresolvable: world returns nil for it from here on.
func (t *pidTable) unlist(w *World) {
	w.listed.Store(false)
	t.release(w)
}

// release drops w's record from its slot if that is all that is left of
// it: its fate is terminal, it is unlisted, its bucket is dropped and no
// child of it runs. Every caller has just made one of those true, and
// all five are atomics, so the last of them finds all true.
func (t *pidTable) release(w *World) {
	if w.listed.Load() || !w.dropped.Load() || w.kids.Load() != nil || !t.fate(w.pid).terminal() {
		return
	}
	if !w.released.CompareAndSwap(false, true) {
		return
	}
	s := t.segmentOf(w.pid)
	s.recs.Load()[slot(w.pid)].Store(nil)
	if s.held.Add(-1) == 0 {
		s.recs.Store(nil)
	}
}

// subscribe adds w to the bucket of every PID in pids. A PID with no
// record, or whose bucket is dropped, is skipped: it was released or
// resolved, so its fate is terminal already and the caller's catch-up
// applies it.
func (t *pidTable) subscribe(w *World, pids []ids.PID) {
	for _, p := range pids {
		r := t.rec(p)
		if r == nil {
			continue
		}
		r.recMu.Lock()
		if old := r.subs.Load(); !r.dropped.Load() && (old == nil || !containsWorld(*old, w)) {
			var b []*World
			if old != nil {
				b = make([]*World, len(*old), len(*old)+1)
				copy(b, *old)
			}
			b = append(b, w)
			r.subs.Store(&b)
		}
		r.recMu.Unlock()
	}
}

// unsubscribe removes w from the bucket of every PID in pids.
func (t *pidTable) unsubscribe(w *World, pids []ids.PID) {
	for _, p := range pids {
		r := t.rec(p)
		if r == nil {
			continue
		}
		r.recMu.Lock()
		if old := r.subs.Load(); old != nil && containsWorld(*old, w) {
			var next *[]*World // nil: an emptied bucket is gone
			if len(*old) > 1 {
				b := make([]*World, 0, len(*old)-1)
				for _, x := range *old {
					if x != w {
						b = append(b, x)
					}
				}
				next = &b
			}
			r.subs.Store(next)
		}
		r.recMu.Unlock()
	}
}

func containsWorld(ws []*World, w *World) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

// appendSubscribers appends a snapshot of pid's bucket — the affected
// set of resolving pid — to buf. Lock-free; it only appends.
func (t *pidTable) appendSubscribers(buf []*World, pid ids.PID) []*World {
	if r := t.rec(pid); r != nil {
		if b := r.subs.Load(); b != nil {
			buf = append(buf, *b...) // the bucket slice is immutable
		}
	}
	return buf
}

// dropBucket discards pid's bucket once its fate has been propagated, or
// once its world ended without a resolution (Shutdown): a PID resolves
// at most once, so the bucket can never be consulted again — surviving
// subscribers were simplified and no longer mention pid.
func (t *pidTable) dropBucket(pid ids.PID) {
	r := t.rec(pid)
	if r == nil {
		return
	}
	r.recMu.Lock()
	r.subs.Store(nil)
	r.dropped.Store(true)
	r.recMu.Unlock()
	t.release(r)
}

// each calls fn for every record still in the table (diagnostic path:
// it walks every segment that holds one).
func (t *pidTable) each(fn func(w *World)) {
	d := t.dir.Load()
	if d == nil {
		return
	}
	for _, s := range *d {
		recs := s.recs.Load()
		if recs == nil {
			continue
		}
		for i := range recs {
			if w := recs[i].Load(); w != nil {
				fn(w)
			}
		}
	}
}
