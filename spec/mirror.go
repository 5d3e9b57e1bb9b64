// Package spec mirrors spec/altcommit.tla as an executable Go
// transition system, so the model's invariants are machine-checked by
// the ordinary test suite (`go test ./...`) on machines without a TLA+
// toolchain. CI additionally runs TLC on the .tla module itself; the
// two checkers explore the same state graph — action for action, name
// for name — and must agree. Keep this file and altcommit.tla in
// lockstep (the DESIGN §10 mapping table covers both).
package spec

import (
	"fmt"
	"math/bits"
)

// Alternative statuses, mirroring the TLA status strings.
const (
	StRunning uint8 = iota
	StPassed
	StFailed
	StWon
	StTooLate
	StEliminated
)

var statusNames = [...]string{"running", "passed", "failed", "won", "toolate", "eliminated"}

// maxAlts bounds the fixed-size state arrays; the bounded configs stay
// well under it.
const maxAlts = 6

// Config selects a bounded model instance (the TLA CONSTANTS).
type Config struct {
	NAlts      int
	MsgsPerAlt int
	// SkipElim is the deliberate mutation: resolving a non-completed
	// alternative skips eliminating the copies that assumed it would
	// complete. Must produce a NoObservableLosers violation.
	SkipElim bool
	// DropOnSplit is the deliberate mutation of a split whose assume
	// side does not take the triggering message — a message lost while
	// the receiver forks. Must produce a WinnerWritesSurvive violation.
	DropOnSplit bool
}

// CopyRec is one server copy: bitmask of alternatives it assumes will
// complete (Asm) and will not complete (Den), and the number of each
// alternative's messages it accepted (Acc). Alternative i is bit i.
type CopyRec struct {
	Asm, Den uint8
	Acc      [maxAlts]uint8
}

// State is one node of the model's state graph.
type State struct {
	Alt      [maxAlts]uint8 // status per alternative
	Sent     [maxAlts]uint8 // messages sent per alternative
	Claimed  bool
	Winner   int8  // -1 = none
	Resolved uint8 // bitmask of propagated alternatives
	Elims    uint16
	Created  uint16
	Copies   []CopyRec // live copies, sorted (set semantics)
	Flushed  []CopyRec // observation history, sorted — only ever grows
}

// Trans is one labelled transition (the TLA action name, parameterized).
type Trans struct {
	Label string
	To    State
}

// Init returns the initial state: all alternatives running, one root
// copy with no assumptions.
func (c Config) Init() State {
	return State{
		Winner:  -1,
		Copies:  []CopyRec{{}},
		Created: 1,
	}
}

// Key encodes s canonically for visited-set membership.
func (s State) Key(nalts int) string {
	b := make([]byte, 0, 16+4*(len(s.Copies)+len(s.Flushed)))
	b = append(b, s.Alt[:nalts]...)
	b = append(b, s.Sent[:nalts]...)
	cl := byte(0)
	if s.Claimed {
		cl = 1
	}
	b = append(b, cl, byte(s.Winner+1), s.Resolved,
		byte(s.Elims>>8), byte(s.Elims), byte(s.Created>>8), byte(s.Created))
	b = append(b, byte(len(s.Copies)))
	for _, cp := range s.Copies {
		b = append(append(b, cp.Asm, cp.Den), cp.Acc[:nalts]...)
	}
	b = append(b, byte(len(s.Flushed)))
	for _, cp := range s.Flushed {
		b = append(append(b, cp.Asm, cp.Den), cp.Acc[:nalts]...)
	}
	return string(b)
}

func (s State) clone() State {
	n := s
	n.Copies = append([]CopyRec(nil), s.Copies...)
	n.Flushed = append([]CopyRec(nil), s.Flushed...)
	return n
}

// insertCopy adds r to sorted set cs (no-op if present).
func insertCopy(cs []CopyRec, r CopyRec) []CopyRec {
	lo := 0
	for lo < len(cs) && less(cs[lo], r) {
		lo++
	}
	if lo < len(cs) && cs[lo] == r {
		return cs
	}
	cs = append(cs, CopyRec{})
	copy(cs[lo+1:], cs[lo:])
	cs[lo] = r
	return cs
}

func less(a, b CopyRec) bool {
	if a.Asm != b.Asm {
		return a.Asm < b.Asm
	}
	if a.Den != b.Den {
		return a.Den < b.Den
	}
	return string(a.Acc[:]) < string(b.Acc[:])
}

func containsCopy(cs []CopyRec, r CopyRec) bool {
	for _, c := range cs {
		if c == r {
			return true
		}
	}
	return false
}

// Successors enumerates every enabled transition of s — one per TLA
// action instance (the Done self-loop is omitted: the Go checker treats
// fully-resolved leaf states as proper termination instead).
func (c Config) Successors(s State) []Trans {
	var out []Trans
	for a := 0; a < c.NAlts; a++ {
		bit := uint8(1) << a
		switch s.Alt[a] {
		case StRunning:
			// Pass(a) — runAlternative: body ran, guard held.
			n := s.clone()
			n.Alt[a] = StPassed
			out = append(out, Trans{fmt.Sprintf("Pass(%d)", a+1), n})
			// Fail(a) — runAlternative: body aborted or guard failed.
			n = s.clone()
			n.Alt[a] = StFailed
			out = append(out, Trans{fmt.Sprintf("Fail(%d)", a+1), n})
			// EliminateSib(a) — winner's commit kills running siblings.
			if s.Claimed && int(s.Winner) != a {
				n = s.clone()
				n.Alt[a] = StEliminated
				out = append(out, Trans{fmt.Sprintf("EliminateSib(%d)", a+1), n})
			}
			// Send(a) — message to the server under "a completes".
			if int(s.Sent[a]) < c.MsgsPerAlt {
				n = s.clone()
				n.Sent[a]++
				var next []CopyRec
				splits := 0
				for _, cp := range s.Copies {
					switch {
					case cp.Asm&bit != 0: // accept
						cp.Acc[a]++
						next = insertCopy(next, cp)
					case cp.Den&bit != 0: // ignore
						next = insertCopy(next, cp)
					default:
						splits++
						assume := CopyRec{Asm: cp.Asm | bit, Den: cp.Den, Acc: cp.Acc}
						if !c.DropOnSplit {
							assume.Acc[a]++ // the assume side takes the message
						}
						next = insertCopy(next, assume)
						next = insertCopy(next, CopyRec{Asm: cp.Asm, Den: cp.Den | bit, Acc: cp.Acc})
					}
				}
				n.Copies = next
				n.Created += uint16(splits)
				out = append(out, Trans{fmt.Sprintf("Send(%d)", a+1), n})
			}
		case StPassed:
			if !s.Claimed {
				// Claim(a) — the 0-1 semaphore: first passed wins.
				n := s.clone()
				n.Claimed = true
				n.Winner = int8(a)
				n.Alt[a] = StWon
				out = append(out, Trans{fmt.Sprintf("Claim(%d)", a+1), n})
			} else {
				// TooLate(a) — lost the claim race.
				n := s.clone()
				n.Alt[a] = StTooLate
				out = append(out, Trans{fmt.Sprintf("TooLate(%d)", a+1), n})
			}
		}
		// Resolve(a) — propagate a terminal fate to the copies.
		if terminal(s.Alt[a]) && s.Resolved&bit == 0 {
			n := s.clone()
			n.Resolved |= bit
			completed := s.Alt[a] == StWon
			if !(c.SkipElim && !completed) {
				kept := n.Copies[:0]
				for _, cp := range n.Copies {
					contradicted := false
					if completed {
						contradicted = cp.Den&bit != 0
					} else {
						contradicted = cp.Asm&bit != 0
					}
					if contradicted {
						n.Elims++
					} else {
						kept = append(kept, cp)
					}
				}
				n.Copies = kept
			}
			out = append(out, Trans{fmt.Sprintf("Resolve(%d)", a+1), n})
		}
	}
	// Flush(c) — a copy with every assumption resolved emits its
	// deferred observable output.
	for _, cp := range s.Copies {
		if (cp.Asm|cp.Den)&^s.Resolved != 0 || containsCopy(s.Flushed, cp) {
			continue
		}
		n := s.clone()
		n.Flushed = insertCopy(n.Flushed, cp)
		out = append(out, Trans{fmt.Sprintf("Flush{asm:%b den:%b}", cp.Asm, cp.Den), n})
	}
	return out
}

func terminal(st uint8) bool {
	return st == StFailed || st == StWon || st == StTooLate || st == StEliminated
}

// CheckInvariants returns a non-nil error naming the first violated
// invariant of altcommit.tla, or nil.
func (c Config) CheckInvariants(s State) error {
	allMask := uint8(1)<<c.NAlts - 1

	// TypeOK: copies are well-formed partitions of decided alternatives.
	for _, cp := range append(append([]CopyRec(nil), s.Copies...), s.Flushed...) {
		if cp.Asm&cp.Den != 0 || cp.Asm&^allMask != 0 || cp.Den&^allMask != 0 {
			return fmt.Errorf("TypeOK: malformed copy asm=%b den=%b", cp.Asm, cp.Den)
		}
	}

	// AtMostOneCommit.
	winners := 0
	for a := 0; a < c.NAlts; a++ {
		if s.Alt[a] == StWon {
			winners++
		}
	}
	if winners > 1 {
		return fmt.Errorf("AtMostOneCommit: %d winners", winners)
	}
	if s.Claimed != (s.Winner >= 0) {
		return fmt.Errorf("AtMostOneCommit: claimed=%v but winner=%d", s.Claimed, s.Winner)
	}
	if s.Winner >= 0 && s.Alt[s.Winner] != StWon {
		return fmt.Errorf("AtMostOneCommit: winner %d has status %s", s.Winner+1, statusNames[s.Alt[s.Winner]])
	}

	// NoObservableLosers.
	for _, cp := range s.Flushed {
		for a := 0; a < c.NAlts; a++ {
			bit := uint8(1) << a
			if cp.Asm&bit != 0 {
				switch s.Alt[a] {
				case StFailed, StTooLate, StEliminated:
					return fmt.Errorf("NoObservableLosers: flushed copy{asm:%b den:%b} assumed alt %d completes but it %s",
						cp.Asm, cp.Den, a+1, statusNames[s.Alt[a]])
				}
			}
			if cp.Den&bit != 0 && s.Alt[a] == StWon {
				return fmt.Errorf("NoObservableLosers: flushed copy{asm:%b den:%b} denied alt %d which won",
					cp.Asm, cp.Den, a+1)
			}
		}
	}

	// WinnerWritesSurvive: a live copy that assumes a completes has
	// accepted every message a sent.
	for _, cp := range s.Copies {
		for a := 0; a < c.NAlts; a++ {
			if cp.Asm&(1<<a) != 0 && cp.Acc[a] != s.Sent[a] {
				return fmt.Errorf("WinnerWritesSurvive: copy{asm:%b den:%b} assumes alt %d but accepted %d of its %d messages",
					cp.Asm, cp.Den, a+1, cp.Acc[a], s.Sent[a])
			}
		}
	}

	// ContradictionChainTermination.
	if int(s.Elims) > int(s.Created) {
		return fmt.Errorf("ContradictionChainTermination: elims %d > created %d", s.Elims, s.Created)
	}
	if len(s.Copies) > 1<<c.NAlts {
		return fmt.Errorf("ContradictionChainTermination: %d live copies > 2^%d", len(s.Copies), c.NAlts)
	}
	if int(s.Created) > 1+c.NAlts*c.MsgsPerAlt*(1<<c.NAlts) {
		return fmt.Errorf("ContradictionChainTermination: created %d exceeds split bound", s.Created)
	}
	return nil
}

// FullyResolved reports whether every alternative's fate has been
// propagated — the Done condition of the TLA module.
func (c Config) FullyResolved(s State) bool {
	return bits.OnesCount8(s.Resolved) == c.NAlts
}

// Result summarizes an exhaustive breadth-first exploration.
type Result struct {
	States      int      // distinct states visited
	Transitions int      // transitions taken
	Violation   error    // first invariant violation, or nil
	Trace       []string // action labels from Init to the violation
	Deadlocks   int      // states with no enabled action
	BadDeadlock *State   // a deadlock that is not fully resolved, if any
}

// Explore walks the whole bounded state graph from Init, checking every
// invariant in every state. The graph is finite and acyclic (every
// action strictly increases a potential: statuses only move forward,
// sent/resolved/flushed only grow), so the walk terminates and leaf
// states are exactly the protocol's possible final outcomes; Explore
// verifies each leaf is fully resolved — the executable counterpart of
// BlockTerminates under fair scheduling.
func (c Config) Explore() Result {
	type node struct {
		state  State
		parent string // key of predecessor
		via    string // action label that produced it
	}
	init := c.Init()
	res := Result{}
	visited := map[string]node{init.Key(c.NAlts): {state: init}}
	queue := []string{init.Key(c.NAlts)}

	traceTo := func(key string) []string {
		var labels []string
		for key != "" {
			n := visited[key]
			if n.via == "" {
				break
			}
			labels = append([]string{n.via}, labels...)
			key = n.parent
		}
		return labels
	}

	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		n := visited[key]
		if err := c.CheckInvariants(n.state); err != nil {
			if res.Violation == nil {
				res.Violation = err
				res.Trace = traceTo(key)
			}
			continue
		}
		succ := c.Successors(n.state)
		if len(succ) == 0 {
			res.Deadlocks++
			if !c.FullyResolved(n.state) && res.BadDeadlock == nil {
				st := n.state.clone()
				res.BadDeadlock = &st
			}
			continue
		}
		res.Transitions += len(succ)
		for _, t := range succ {
			k := t.To.Key(c.NAlts)
			if _, ok := visited[k]; ok {
				continue
			}
			visited[k] = node{state: t.To, parent: key, via: t.Label}
			queue = append(queue, k)
		}
	}
	res.States = len(visited)
	return res
}
