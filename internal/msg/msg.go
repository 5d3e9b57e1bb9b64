// Package msg implements the paper's specialized message layer (§3.4):
// every message carries (1) the sending predicate — "the assumptions
// under which the sender sends the message" — (2) the data, and (3)
// control information (sender id, destination id).
//
// Delivery applies the multiple-worlds rule of §3.4.2: if the
// receiver's predicates imply the sender's, the message is accepted; if
// they conflict, it is ignored; if the receiver would have to make
// further assumptions, the receiver is split into two copies — one that
// assumes the sender completes (and accepts the message) and one that
// assumes it does not (and never sees it). This package only stamps and
// decides: it keeps no record of who is live, and the split itself —
// forking a server's version in its receive loop — is the core
// runtime's. The caller stamps a message with Stamp and asks Decide
// once per receiver copy, with the copy's set read first.
package msg

import (
	"errors"
	"sync/atomic"

	"altrun/internal/ids"
	"altrun/internal/predicate"
)

// ErrUnknownReceiver is returned when the destination is not live.
var ErrUnknownReceiver = errors.New("msg: unknown receiver")

// Message is the three-part message of §3.4.1.
type Message struct {
	// Seq is a router-assigned sequence number (control information).
	Seq int64
	// Sender identifies the sending process (control information).
	Sender ids.PID
	// SenderPredicates is the sending predicate: the sender's
	// assumptions at send time. Sets are immutable, so the sender's
	// current set is the snapshot, and every copy of a split receiver
	// decides against the same one.
	SenderPredicates *predicate.Set
	// Dest identifies the destination process (control information).
	Dest ids.PID
	// Data is the message contents.
	Data any
}

// Stats counts delivery decisions; the worlds experiment (E13) reports
// them. Sent counts stamped messages, one per send however many copies
// of a split receiver decide it; the other three count decisions, one
// per copy.
type Stats struct {
	Sent     int
	Accepted int
	Ignored  int
	Splits   int
}

// Router stamps messages and decides them for the receivers its caller
// resolved. It is safe for concurrent use. It takes no lock at all —
// the sequence/decision counters are atomics — so concurrent senders,
// even to the same receiver, never serialize in the router.
type Router struct {
	seq      atomic.Int64
	sent     atomic.Int64
	accepted atomic.Int64
	ignored  atomic.Int64
	splits   atomic.Int64
}

// NewRouter returns a router.
func NewRouter() *Router { return &Router{} }

// Stats returns a snapshot of the delivery counters.
func (r *Router) Stats() Stats {
	return Stats{
		Sent:     int(r.sent.Load()),
		Accepted: int(r.accepted.Load()),
		Ignored:  int(r.ignored.Load()),
		Splits:   int(r.splits.Load()),
	}
}

// Stamp makes the message data from the sender (with predicate set
// senderPred) to dest: it assigns the sequence number and counts the
// send. The message carries senderPred itself — sets are
// immutable, so one may be shared by any number of messages. The caller
// queues the message and decides it later with Decide.
func (r *Router) Stamp(sender ids.PID, senderPred *predicate.Set, dest ids.PID, data any) Message {
	m := Message{
		Seq:              r.seq.Add(1),
		Sender:           sender,
		SenderPredicates: senderPred,
		Dest:             dest,
		Data:             data,
	}
	r.sent.Add(1)
	return m
}

// Decide applies the accept/ignore/split rule to m for a receiver copy
// holding the set rcvPred, and counts the decision. senderPred is the set to decide against — m's sending
// predicate, possibly with fates that have resolved since folded in —
// or nil when one of its assumptions is already known false: a message
// from a dead world, ignored. On Split it returns the copies' sets: the
// assume-copy takes m, the deny-copy does not. A split no set can
// express is an ignore (the sender's world is already dead from the
// receiver's perspective).
func (r *Router) Decide(rcvPred, senderPred *predicate.Set, m Message) (d predicate.Decision, assume, deny *predicate.Set) {
	d = predicate.Ignore
	if senderPred != nil {
		d = predicate.Decide(rcvPred, senderPred)
	}
	if d == predicate.Split {
		var err error
		if assume, deny, err = predicate.SplitWorlds(rcvPred, senderPred, m.Sender); err != nil {
			d = predicate.Ignore
		}
	}
	switch d {
	case predicate.Accept:
		r.accepted.Add(1)
	case predicate.Split:
		r.splits.Add(1)
	default:
		r.ignored.Add(1)
	}
	return d, assume, deny
}
