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
package predicate

import (
	"fmt"
	"sort"
	"strings"

	"altrun/internal/ids"
)

// Set is a conjunction of assumptions: every PID in the must-complete
// list completes successfully, and every PID in the can't-complete list
// does not. The zero value is not usable; call New.
type Set struct {
	must map[ids.PID]struct{}
	cant map[ids.PID]struct{}
}

// New returns an empty (always-true) predicate set.
func New() *Set {
	return &Set{
		must: make(map[ids.PID]struct{}),
		cant: make(map[ids.PID]struct{}),
	}
}

// Clone returns an independent copy. A child's predicates "consist of
// those of the parent" (§3.3), so spawning starts from Clone.
func (s *Set) Clone() *Set {
	n := &Set{
		must: make(map[ids.PID]struct{}, len(s.must)),
		cant: make(map[ids.PID]struct{}, len(s.cant)),
	}
	for p := range s.must {
		n.must[p] = struct{}{}
	}
	for p := range s.cant {
		n.cant[p] = struct{}{}
	}
	return n
}

// RequireComplete adds the assumption that p completes successfully.
// Adding an assumption already contradicted returns ErrContradiction.
func (s *Set) RequireComplete(p ids.PID) error {
	if _, bad := s.cant[p]; bad {
		return &ContradictionError{PID: p}
	}
	s.must[p] = struct{}{}
	return nil
}

// RequireFail adds the assumption that p does NOT complete successfully.
func (s *Set) RequireFail(p ids.PID) error {
	if _, bad := s.must[p]; bad {
		return &ContradictionError{PID: p}
	}
	s.cant[p] = struct{}{}
	return nil
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
func (s *Set) MustComplete(p ids.PID) bool { _, ok := s.must[p]; return ok }

// CantComplete reports whether the set assumes p does not complete.
func (s *Set) CantComplete(p ids.PID) bool { _, ok := s.cant[p]; return ok }

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
	for p := range other.must {
		if _, ok := s.must[p]; !ok {
			return false
		}
	}
	for p := range other.cant {
		if _, ok := s.cant[p]; !ok {
			return false
		}
	}
	return true
}

// ConflictsWith reports whether s and other make opposite assumptions
// about any PID ("p ∈ S and ¬p ∈ R", §3.4.2).
func (s *Set) ConflictsWith(other *Set) bool {
	for p := range other.must {
		if _, ok := s.cant[p]; ok {
			return true
		}
	}
	for p := range other.cant {
		if _, ok := s.must[p]; ok {
			return true
		}
	}
	return false
}

// Union merges other's assumptions into a copy of s. It returns
// ErrContradiction (as *ContradictionError) if the result is impossible.
func (s *Set) Union(other *Set) (*Set, error) {
	n := s.Clone()
	for p := range other.must {
		if err := n.RequireComplete(p); err != nil {
			return nil, err
		}
	}
	for p := range other.cant {
		if err := n.RequireFail(p); err != nil {
			return nil, err
		}
	}
	return n, nil
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

// ResolveComplete records that p completed successfully.
func (s *Set) ResolveComplete(p ids.PID) Outcome {
	if _, ok := s.cant[p]; ok {
		return Contradicted
	}
	if _, ok := s.must[p]; ok {
		delete(s.must, p)
		return Simplified
	}
	return Unaffected
}

// ResolveFail records that p failed (or was eliminated).
func (s *Set) ResolveFail(p ids.PID) Outcome {
	if _, ok := s.must[p]; ok {
		return Contradicted
	}
	if _, ok := s.cant[p]; ok {
		delete(s.cant, p)
		return Simplified
	}
	return Unaffected
}

// AppendPIDs appends every PID the set mentions (must-complete and
// can't-complete, which are disjoint) to buf and returns the extended
// slice, in no particular order. It is the allocation-free enumeration
// the runtime's predicate-subscription index is built from: a world is
// affected by exactly the resolutions of the PIDs listed here.
func (s *Set) AppendPIDs(buf []ids.PID) []ids.PID {
	for p := range s.must {
		buf = append(buf, p)
	}
	for p := range s.cant {
		buf = append(buf, p)
	}
	return buf
}

// MustList returns the must-complete PIDs in ascending order.
func (s *Set) MustList() []ids.PID { return sortedPIDs(s.must) }

// CantList returns the can't-complete PIDs in ascending order.
func (s *Set) CantList() []ids.PID { return sortedPIDs(s.cant) }

func sortedPIDs(m map[ids.PID]struct{}) []ids.PID {
	out := make([]ids.PID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {must: p1,p2 cant: p3}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString("{must:")
	for i, p := range s.MustList() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteString(" cant:")
	for i, p := range s.CantList() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
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
// receiver with predicates R (§3.4.2).
func Decide(receiver, sender *Set) Decision {
	if receiver.Implies(sender) {
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
	if err != nil {
		return nil, nil, fmt.Errorf("assume-world: %w", err)
	}
	if err := assume.RequireComplete(senderPID); err != nil {
		return nil, nil, fmt.Errorf("assume-world: %w", err)
	}
	deny = receiver.Clone()
	if err := deny.RequireFail(senderPID); err != nil {
		return nil, nil, fmt.Errorf("deny-world: %w", err)
	}
	return assume, deny, nil
}
