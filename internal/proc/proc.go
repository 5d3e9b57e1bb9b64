// Package proc is the process-status registry. Predicates are "lists of
// process identifiers" whose value is updated "as processes change
// status" (§3.3); this package is where status lives and where the
// predicate and message layers read it.
//
// It deliberately knows nothing about memory or scheduling: it records
// who exists, how they relate (parent, sibling group), and how they
// ended (completed, failed, eliminated). The core runtime, which makes
// the transitions, drives predicate resolution and world elimination
// from them itself.
//
// The read paths the commit cascade hits — Status, AppendChildren —
// are lock-free: entries live in a table read by atomic loads
// (internal/pidmap), a process's status is one atomic word transitioned
// by CAS (terminal states absorb: the CAS that makes a status terminal
// wins forever), and each parent's child index is an immutable slice
// republished when a child registers or retires. Only Register and a
// terminal SetStatus (its parent's index) take a writer side.
//
// The child index is live-only. A child leaves its parent's index on its
// terminal transition, so an index holds what an elimination cascade can
// still reach and costs what the parent has running now, not what it
// ever ran. Roots (parent ids.None) are in no index: nothing cascades
// from None.
package proc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"altrun/internal/ids"
	"altrun/internal/pidmap"
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
)

var statusNames = map[Status]string{
	Running:    "running",
	Blocked:    "blocked",
	Completed:  "completed",
	Failed:     "failed",
	Eliminated: "eliminated",
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
	return s == Completed || s == Failed || s == Eliminated
}

// Succeeded reports whether the terminal status means "completed
// successfully" for predicate-resolution purposes; Failed and Eliminated
// both count as not completing (§3.2.1).
func (s Status) Succeeded() bool { return s == Completed }

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

// Table is the process registry. It is safe for concurrent use.
type Table struct {
	gen *ids.Generator

	// entries maps PID → record. Entries are never removed (PIDs are
	// never reused, and the status of a resolved PID is asked for long
	// after it ended), so a record once looked up stays valid forever.
	entries *pidmap.Map[entry]
}

// NewTable returns an empty registry drawing PIDs from gen.
func NewTable(gen *ids.Generator) *Table {
	return &Table{gen: gen, entries: pidmap.NewMap[entry]()}
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

// unlink removes e from its parent's child index.
func (t *Table) unlink(e *entry) {
	p := e.parent
	if p == nil {
		return
	}
	p.kidsMu.Lock()
	defer p.kidsMu.Unlock()
	if kids := p.kids.Load(); kids != nil {
		if i := slices.Index(*kids, e.pid); i >= 0 {
			var next *[]ids.PID // nil: an emptied index is gone
			if len(*kids) > 1 {
				l := slices.Delete(slices.Clone(*kids), i, i+1)
				next = &l
			}
			p.kids.Store(next)
		}
	}
}

// lookup returns the stable record for pid, or nil.
func (t *Table) lookup(pid ids.PID) *entry {
	if pid <= 0 {
		return nil
	}
	return t.entries.Get(pid)
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

// SetStatus transitions pid to st. Transitions
// out of a terminal state, or on unknown PIDs, are rejected. The
// transition itself is one CAS: concurrent resolvers race, exactly one
// wins the terminal transition, and the loser gets the idempotent-or-
// error answer a mutexed table would have given it.
func (t *Table) SetStatus(pid ids.PID, st Status) error {
	e := t.lookup(pid)
	if e == nil {
		return fmt.Errorf("proc: unknown pid %v", pid)
	}
	for {
		cur := Status(e.status.Load())
		if cur.Terminal() {
			if cur == st {
				return nil // idempotent
			}
			return fmt.Errorf("proc: %v already terminal (%v), cannot set %v", pid, cur, st)
		}
		if e.status.CompareAndSwap(int32(cur), int32(st)) {
			break
		}
	}
	if st.Terminal() {
		t.unlink(e)
	}
	return nil
}

// Children returns pid's indexed children (see AppendChildren).
func (t *Table) Children(pid ids.PID) []ids.PID {
	return t.AppendChildren(nil, pid)
}

// AppendChildren appends pid's indexed children, in registration order,
// to buf and returns the extended slice: every child that is registered
// and not yet terminal.
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
// returns to 0 — every block's children retired.
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
