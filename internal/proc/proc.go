// Package proc is the process-status registry. Predicates are "lists of
// process identifiers" whose value is updated "as processes change
// status" (§3.3); this package is where status lives and where the
// predicate and message layers learn about changes.
//
// It deliberately knows nothing about memory or scheduling: it records
// who exists, how they relate (parent, sibling group), and how they
// ended (completed, failed, eliminated), and broadcasts transitions to
// subscribers. The core runtime wires those broadcasts into predicate
// resolution and world elimination.
//
// The read paths the commit cascade hits — Status, AppendChildren —
// are lock-free: entries live in an epoch-reclaimed table
// (internal/epoch), a process's status is one atomic word transitioned
// by CAS (terminal states absorb: the CAS that makes a status terminal
// wins forever), and each parent's child index is an immutable slice
// republished when a child registers or retires. Only Register, a
// terminal SetStatus (its parent's index) and Subscribe take a writer
// side.
//
// The child index is live-only. A child leaves its parent's index on its
// terminal transition, so an index holds what an elimination cascade can
// still reach and costs what the parent has running now, not what it
// ever ran. One kind of terminal node stays: a Forked process remains in
// its parent's index for as long as its own index is non-empty, because
// its children are the split copies messages for it must reach (§3.4.2)
// — the index restricted to Forked parents is the split-receiver alias
// graph, and it retires upward when the last copy of a lineage ends.
// Roots (parent ids.None) are in no index: nothing cascades from None.
package proc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"altrun/internal/epoch"
	"altrun/internal/ids"
)

// Status is a process's lifecycle state.
type Status int

// Status values. A process ends in exactly one of Completed, Failed, or
// Eliminated; transitions out of terminal states are rejected.
const (
	// Running: executing (or runnable).
	Running Status = iota + 1
	// Blocked: waiting (on a source, a message, or synchronization).
	Blocked
	// Completed: finished successfully and won its synchronization (or
	// had none).
	Completed
	// Failed: its guard failed or it aborted.
	Failed
	// Eliminated: a sibling won; this process was killed (§3.2.1).
	Eliminated
	// Forked: the process was superseded by two copies of itself by the
	// multiple-worlds message layer (§3.4.2). For predicate resolution
	// it is neither a completion nor a failure: its copies carry its
	// obligations forward.
	Forked
)

var statusNames = map[Status]string{
	Running:    "running",
	Blocked:    "blocked",
	Completed:  "completed",
	Failed:     "failed",
	Eliminated: "eliminated",
	Forked:     "forked",
}

// String renders the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == Completed || s == Failed || s == Eliminated || s == Forked
}

// Succeeded reports whether the terminal status means "completed
// successfully" for predicate-resolution purposes; Failed and Eliminated
// both count as not completing (§3.2.1).
func (s Status) Succeeded() bool { return s == Completed }

// Event is a status transition.
type Event struct {
	PID ids.PID
	Old Status
	New Status
}

// Entry is the registry's record of one process (a copy; see Get).
type Entry struct {
	PID    ids.PID
	Parent ids.PID
	Name   string
	Status Status
}

// entry is the internal record: identity fields are immutable after
// Register, status is an atomic word transitioned only by CAS.
type entry struct {
	pid    ids.PID
	parent *entry // nil for roots and for children of unregistered PIDs
	name   string
	status atomic.Int32

	// kids is this process's child index: an immutable slice, replaced
	// under kidsMu by Register and unlink, nil when empty.
	kidsMu sync.Mutex
	kids   atomic.Pointer[[]ids.PID]
}

// subscriber is one registered status-transition callback.
type subscriber struct {
	id int
	f  func(Event)
}

// Table is the process registry. It is safe for concurrent use.
type Table struct {
	gen *ids.Generator

	dom *epoch.Domain
	// entries maps PID → record. Entries are never removed (PIDs are
	// never reused, and the status of a resolved PID is asked for long
	// after it ended), so a pointer obtained under a pin stays valid
	// forever; the pin protects only the table probe.
	entries *epoch.Map[entry]

	// subMu serializes Subscribe/unsubscribe; subs is the COW snapshot
	// SetStatus reads without locking.
	subMu   sync.Mutex
	subs    atomic.Pointer[[]subscriber]
	nextSub int
}

// NewTable returns an empty registry drawing PIDs from gen.
func NewTable(gen *ids.Generator) *Table {
	d := epoch.NewDomain()
	return &Table{gen: gen, dom: d, entries: epoch.NewMap[entry](d)}
}

// Register creates a new Running process and returns its PID. It costs
// O(live children of parent): the parent's index is republished with the
// new child appended.
func (t *Table) Register(parent ids.PID, name string) ids.PID {
	pid := t.gen.NextPID()
	e := &entry{pid: pid, parent: t.lookup(parent), name: name}
	e.status.Store(int32(Running))
	t.entries.Set(pid, e)
	if p := e.parent; p != nil {
		p.kidsMu.Lock()
		var next []ids.PID
		if old := p.kids.Load(); old != nil {
			next = make([]ids.PID, len(*old), len(*old)+1)
			copy(next, *old)
		}
		next = append(next, pid)
		p.kids.Store(&next)
		p.kidsMu.Unlock()
	}
	return pid
}

// unlink removes e from its parent's child index. Emptying the index of
// a Forked parent retires that parent from its own parent's index in
// turn: no live copy is reachable through it any more.
//
// This and SetStatus's retire condition are the two halves of one
// handshake. A process turning Forked stores its status and then reads
// its index; its last child stores the emptied index and then reads the
// parent's status. Whichever pair runs second sees the other's store, so
// a Forked node with an empty index is always unlinked (possibly by
// both, which is idempotent).
func (t *Table) unlink(e *entry) {
	for p := e.parent; p != nil; e, p = p, p.parent {
		p.kidsMu.Lock()
		next := p.kids.Load()
		if next != nil {
			if i := slices.Index(*next, e.pid); i >= 0 {
				if len(*next) == 1 {
					next = nil
				} else {
					l := make([]ids.PID, 0, len(*next)-1)
					l = append(append(l, (*next)[:i]...), (*next)[i+1:]...)
					next = &l
				}
				p.kids.Store(next)
			}
		}
		p.kidsMu.Unlock()
		if next != nil || Status(p.status.Load()) != Forked {
			return
		}
	}
}

// lookup returns the stable record for pid, or nil.
func (t *Table) lookup(pid ids.PID) *entry {
	if pid <= 0 {
		return nil
	}
	g := t.dom.Pin()
	e := t.entries.Get(pid)
	g.Unpin()
	return e
}

// Get returns a copy of the entry for pid.
func (t *Table) Get(pid ids.PID) (Entry, bool) {
	e := t.lookup(pid)
	if e == nil {
		return Entry{}, false
	}
	out := Entry{PID: e.pid, Name: e.name, Status: Status(e.status.Load())}
	if e.parent != nil {
		out.Parent = e.parent.pid
	}
	return out, true
}

// Status returns the status of pid, or 0 if unknown. Lock-free.
func (t *Table) Status(pid ids.PID) Status {
	if e := t.lookup(pid); e != nil {
		return Status(e.status.Load())
	}
	return 0
}

// SetStatus transitions pid to st and notifies subscribers. Transitions
// out of a terminal state, or on unknown PIDs, are rejected. The
// transition itself is one CAS: concurrent resolvers race, exactly one
// wins the terminal transition, and the loser gets the idempotent-or-
// error answer a mutexed table would have given it.
func (t *Table) SetStatus(pid ids.PID, st Status) error {
	e := t.lookup(pid)
	if e == nil {
		return fmt.Errorf("proc: unknown pid %v", pid)
	}
	var old Status
	for {
		cur := Status(e.status.Load())
		if cur.Terminal() {
			if cur == st {
				return nil // idempotent
			}
			return fmt.Errorf("proc: %v already terminal (%v), cannot set %v", pid, cur, st)
		}
		if e.status.CompareAndSwap(int32(cur), int32(st)) {
			old = cur
			break
		}
	}
	// Retire from the parent's index — unless this is a fork with indexed
	// children, which stays until the last of them has retired (unlink).
	if st.Terminal() && (st != Forked || e.kids.Load() == nil) {
		t.unlink(e)
	}
	if subs := t.subs.Load(); subs != nil {
		ev := Event{PID: pid, Old: old, New: st}
		for _, s := range *subs {
			s.f(ev)
		}
	}
	return nil
}

// Subscribe registers a callback for every status transition and
// returns an unsubscribe function. Callbacks run synchronously on the
// goroutine calling SetStatus and must not call back into the Table's
// mutating methods for the same PID.
func (t *Table) Subscribe(f func(Event)) (unsubscribe func()) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	id := t.nextSub
	t.nextSub++
	var next []subscriber
	if old := t.subs.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, subscriber{id: id, f: f})
	t.subs.Store(&next)
	return func() {
		t.subMu.Lock()
		defer t.subMu.Unlock()
		old := t.subs.Load()
		if old == nil {
			return
		}
		kept := make([]subscriber, 0, len(*old))
		for _, s := range *old {
			if s.id != id {
				kept = append(kept, s)
			}
		}
		t.subs.Store(&kept)
	}
}

// Children returns pid's indexed children (see AppendChildren).
func (t *Table) Children(pid ids.PID) []ids.PID {
	return t.AppendChildren(nil, pid)
}

// AppendChildren appends pid's indexed children, in registration order,
// to buf and returns the extended slice: every child that is registered
// and not yet terminal, plus Forked children that still lead to one.
// With a buffer of sufficient capacity it performs no allocation — the
// form the elimination cascade uses. Lock-free.
func (t *Table) AppendChildren(buf []ids.PID, pid ids.PID) []ids.PID {
	if e := t.lookup(pid); e != nil {
		if l := e.kids.Load(); l != nil {
			buf = append(buf, *l...)
		}
	}
	return buf
}

// Live returns the number of processes not in a terminal state.
func (t *Table) Live() int {
	n := 0
	t.entries.Range(func(_ ids.PID, e *entry) bool {
		if !Status(e.status.Load()).Terminal() {
			n++
		}
		return true
	})
	return n
}

// Indexed returns the number of processes whose child index is
// non-empty (diagnostic: it walks every entry). A quiescent runtime
// returns to 0 — every block's children and every split lineage retired.
func (t *Table) Indexed() int {
	n := 0
	t.entries.Range(func(_ ids.PID, e *entry) bool {
		if e.kids.Load() != nil {
			n++
		}
		return true
	})
	return n
}

// Len returns the number of registered processes, live or terminal.
func (t *Table) Len() int {
	return t.entries.Len()
}
