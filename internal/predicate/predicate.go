// Package predicate implements the paper's predicates (§3.3): "lists of
// process identifiers, some of which the sending process depends on
// completing successfully and others on which the sending process
// depends on to not complete successfully."
//
// A speculative world carries a Set summarizing the assumptions under
// which it executes; every message carries the sender's Set (§3.4.1).
// The representation as two PID lists is deliberately simpler than
// Eswaran-style data predicates: it is updated when *processes* change
// status, which happens far less often than memory references (§3.3).
//
// A Set is an immutable value shared by pointer. Nothing changes a Set
// once it is built: WithComplete, WithFail, Union, Resolve and
// SplitWorlds derive new sets and leave their receivers alone. So a
// world hands out its current set without copying, a message carries
// its sender's set by pointer to every copy it fans out to, and a
// resolution replaces a world's set instead of editing it — a snapshot
// taken before the resolution still says what it said.
package predicate

import (
	"fmt"
	"slices"
	"strings"

	"altrun/internal/ids"
)

// Set is a conjunction of assumptions: every PID in the must-complete
// list completes successfully, and every PID in the can't-complete list
// does not. The lists are sorted, free of duplicates and disjoint, and
// never written after the Set is built; derived sets share the lists
// they did not change. The zero value is the empty set.
type Set struct {
	must []ids.PID
	cant []ids.PID
}

// empty is the one empty set; immutability makes sharing it safe.
var empty = &Set{}

// New returns an empty (always-true) predicate set.
func New() *Set { return empty }

// WithComplete returns s plus the assumption that p completes
// successfully. Adding an assumption already contradicted returns a
// *ContradictionError. A child's predicates "consist of those of the
// parent" plus its own (§3.3), so spawning derives from the parent.
func (s *Set) WithComplete(p ids.PID) (*Set, error) {
	if contains(s.cant, p) {
		return nil, &ContradictionError{PID: p}
	}
	if contains(s.must, p) {
		return s, nil
	}
	return &Set{must: merge(s.must, []ids.PID{p}), cant: s.cant}, nil
}

// WithFail returns s plus the assumption that none of ps completes
// successfully.
func (s *Set) WithFail(ps ...ids.PID) (*Set, error) {
	for _, p := range ps {
		if contains(s.must, p) {
			return nil, &ContradictionError{PID: p}
		}
	}
	cant := merge(s.cant, ps)
	if len(cant) == len(s.cant) {
		return s, nil
	}
	return &Set{must: s.must, cant: cant}, nil
}

// ContradictionError reports an impossible predicate set: some PID is
// required both to complete and to not complete. A world holding such a
// set "has made an assumption we know to be false" and must be
// eliminated (§3.2.1).
type ContradictionError struct {
	PID ids.PID
}

func (e *ContradictionError) Error() string {
	return fmt.Sprintf("predicate: contradiction on %v (must and can't complete)", e.PID)
}

// MustComplete reports whether the set assumes p completes.
func (s *Set) MustComplete(p ids.PID) bool { return contains(s.must, p) }

// CantComplete reports whether the set assumes p does not complete.
func (s *Set) CantComplete(p ids.PID) bool { return contains(s.cant, p) }

// Len returns the number of outstanding assumptions.
func (s *Set) Len() int { return len(s.must) + len(s.cant) }

// Unresolved reports whether any assumption is outstanding. "While a
// process has predicates which are unsatisfied, it is restricted from
// causing observable side-effects, and thus cannot interface with
// sources" (§3.4.2).
func (s *Set) Unresolved() bool { return s.Len() > 0 }

// Implies reports whether s ⊇ other: every assumption of other is
// already an assumption of s. A receiver whose predicates imply the
// sender's accepts the message immediately (§3.4.2, "S ⊆ R").
func (s *Set) Implies(other *Set) bool {
	return subset(other.must, s.must) && subset(other.cant, s.cant)
}

// ConflictsWith reports whether s and other make opposite assumptions
// about any PID ("p ∈ S and ¬p ∈ R", §3.4.2).
func (s *Set) ConflictsWith(other *Set) bool {
	_, a := common(s.cant, other.must)
	_, b := common(s.must, other.cant)
	return a || b
}

// Union returns the assumptions of s and other together. It returns a
// *ContradictionError if the result is impossible.
func (s *Set) Union(other *Set) (*Set, error) {
	must, cant := merge(s.must, other.must), merge(s.cant, other.cant)
	if p, ok := common(must, cant); ok {
		return nil, &ContradictionError{PID: p}
	}
	return &Set{must: must, cant: cant}, nil
}

// Outcome is the effect of resolving a process's fate on a Set.
type Outcome int

const (
	// Unaffected: the set made no assumption about the process.
	Unaffected Outcome = iota + 1
	// Simplified: an assumption became true and was removed; "at this
	// point the additional assumptions ... will become TRUE, and they
	// can be eliminated from the lists" (§3.4.2).
	Simplified
	// Contradicted: an assumption became false; the world holding this
	// set must be eliminated.
	Contradicted
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Unaffected:
		return "unaffected"
	case Simplified:
		return "simplified"
	case Contradicted:
		return "contradicted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Resolve records that p completed successfully (completed) or failed
// or was eliminated (!completed). On Simplified it returns the set
// without the satisfied assumption; otherwise it returns s itself.
func (s *Set) Resolve(p ids.PID, completed bool) (*Set, Outcome) {
	holds, denied := s.must, s.cant
	if !completed {
		holds, denied = s.cant, s.must
	}
	if contains(denied, p) {
		return s, Contradicted
	}
	i, ok := slices.BinarySearch(holds, p)
	if !ok {
		return s, Unaffected
	}
	rest := slices.Delete(slices.Clone(holds), i, i+1)
	if completed {
		return &Set{must: rest, cant: s.cant}, Simplified
	}
	return &Set{must: s.must, cant: rest}, Simplified
}

// AppendPIDs appends every PID the set mentions (must-complete, then
// can't-complete; the lists are disjoint) to buf and returns the
// extended slice. It is the allocation-free enumeration the runtime's
// predicate-subscription index is built from: a world is affected by
// exactly the resolutions of the PIDs listed here.
func (s *Set) AppendPIDs(buf []ids.PID) []ids.PID {
	return append(append(buf, s.must...), s.cant...)
}

// MustList returns the must-complete PIDs in ascending order.
func (s *Set) MustList() []ids.PID { return slices.Clone(s.must) }

// CantList returns the can't-complete PIDs in ascending order.
func (s *Set) CantList() []ids.PID { return slices.Clone(s.cant) }

// String renders the set as {must: p1,p2 cant: p3}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("{must:")
	writePIDs(&b, s.must)
	b.WriteString(" cant:")
	writePIDs(&b, s.cant)
	b.WriteByte('}')
	return b.String()
}

func writePIDs(b *strings.Builder, ps []ids.PID) {
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
}

// Decision is what a receiver does with a message, per §3.4.2.
type Decision int

const (
	// Accept: the receiver's assumptions imply the sender's.
	Accept Decision = iota + 1
	// Ignore: the assumptions conflict; the message is from a world
	// the receiver already assumes is dead.
	Ignore
	// Split: the receiver must make further assumptions; it forks into
	// an assume-copy and a deny-copy.
	Split
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Ignore:
		return "ignore"
	case Split:
		return "split"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Decide classifies a message with sender predicates S arriving at a
// receiver with predicates R (§3.4.2). The same set on both sides is an
// Accept without looking inside.
func Decide(receiver, sender *Set) Decision {
	if receiver == sender || receiver.Implies(sender) {
		return Accept
	}
	if receiver.ConflictsWith(sender) {
		return Ignore
	}
	return Split
}

// SplitWorlds computes the two receiver copies created on a Split
// decision. The assume-copy takes on all of the sender's assumptions
// plus "sender completes" (accepting the message "impl[ies] all the
// sender's predicates", §3.4.2 fn. 2). The deny-copy negates
// complete(sender) as a single condition — "thus implying rejection of
// the sender's predicates without creating a logical impossibility"
// (fn. 3) — i.e., it assumes only that the sender itself can't complete.
func SplitWorlds(receiver, sender *Set, senderPID ids.PID) (assume, deny *Set, err error) {
	assume, err = receiver.Union(sender)
	if err == nil {
		assume, err = assume.WithComplete(senderPID)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("assume-world: %w", err)
	}
	deny, err = receiver.WithFail(senderPID)
	if err != nil {
		return nil, nil, fmt.Errorf("deny-world: %w", err)
	}
	return assume, deny, nil
}

// contains reports whether the sorted list ps holds p.
func contains(ps []ids.PID, p ids.PID) bool {
	_, ok := slices.BinarySearch(ps, p)
	return ok
}

// merge returns the sorted list ps with the PIDs of add, in any order,
// merged in: ps itself when add holds nothing new, else a new list.
func merge(ps, add []ids.PID) []ids.PID {
	for _, p := range add {
		if !contains(ps, p) {
			out := make([]ids.PID, 0, len(ps)+len(add))
			out = append(append(out, ps...), add...)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return ps
}

// subset reports whether every PID of sorted sub is in sorted super.
func subset(sub, super []ids.PID) bool {
	if len(sub) > len(super) {
		return false
	}
	j := 0
	for _, p := range sub {
		for j < len(super) && super[j] < p {
			j++
		}
		if j == len(super) || super[j] != p {
			return false
		}
		j++
	}
	return true
}

// common returns the smallest PID both sorted lists hold, if any.
func common(a, b []ids.PID) (ids.PID, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i], true
		}
	}
	return 0, false
}
