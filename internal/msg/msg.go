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
// assumes it does not (and never sees it). The split itself — cloning a
// blocked process — is performed by the Receiver implementation (the
// core runtime forks the world's COW address space); this package only
// decides and dispatches. It keeps no record of who is live: the caller
// resolves a destination to its Receiver (the core runtime looks it up
// in its world registry) and hands that to Send.
package msg

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
	"altrun/internal/predicate"
	"altrun/internal/trace"
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
	// current set is the snapshot, and copies of a split receiver share
	// it.
	SenderPredicates *predicate.Set
	// Dest identifies the destination process (control information).
	Dest ids.PID
	// Data is the message contents.
	Data any
}

// Receiver is a process that can accept messages. The core runtime's
// worlds implement it.
type Receiver interface {
	// PID returns the receiver's process identifier.
	PID() ids.PID
	// Predicates returns the receiver's current assumption set. The
	// router reads it at delivery time.
	Predicates() *predicate.Set
	// Deliver enqueues an accepted message.
	Deliver(m Message)
	// Split replaces the receiver with two copies: the assume-copy
	// (predicates `assume`) which must receive m, and the deny-copy
	// (predicates `deny`) which must not. The implementation makes the
	// copies live, where its callers resolve receivers, and retires
	// itself.
	Split(assume, deny *predicate.Set, m Message) error
}

// Stats counts delivery decisions; the worlds experiment (E13) reports
// them.
type Stats struct {
	Sent     int
	Accepted int
	Ignored  int
	Splits   int
}

// Router decides and dispatches messages to the Receiver its caller
// resolved. It is safe for concurrent use. The send path takes no lock
// at all — the sequence/decision counters are atomics — so concurrent
// senders, even to the same receiver, never serialize in the router.
type Router struct {
	seq      atomic.Int64
	sent     atomic.Int64
	accepted atomic.Int64
	ignored  atomic.Int64
	splits   atomic.Int64

	now func() time.Time
	log *trace.Log
}

// NewRouter returns a router. now supplies trace timestamps (virtual or
// wall time); log may be nil.
func NewRouter(now func() time.Time, log *trace.Log) *Router {
	return &Router{now: now, log: log}
}

// Stats returns a snapshot of the delivery counters.
func (r *Router) Stats() Stats {
	return Stats{
		Sent:     int(r.sent.Load()),
		Accepted: int(r.accepted.Load()),
		Ignored:  int(r.ignored.Load()),
		Splits:   int(r.splits.Load()),
	}
}

// Send routes data from the sender (with predicate set senderPred) to
// rcv, applying the accept/ignore/split rule; a nil rcv (the caller
// found nobody live) is ErrUnknownReceiver. The message carries
// senderPred itself — sets are immutable, so one may be shared by any
// number of sends (a fan-out to split copies). The receiver's set is
// read once per send.
func (r *Router) Send(sender ids.PID, senderPred *predicate.Set, rcv Receiver, data any) error {
	if rcv == nil {
		return ErrUnknownReceiver
	}
	dest := rcv.PID()
	m := Message{
		Seq:              r.seq.Add(1),
		Sender:           sender,
		SenderPredicates: senderPred,
		Dest:             dest,
		Data:             data,
	}
	r.sent.Add(1)
	// Every trace site tests the log first: with tracing off no argument
	// is evaluated (no clock read, no boxing).
	log := r.log
	if log != nil {
		log.Addf(r.now(), trace.KindMsgSend, sender, "to %v seq %d pred %v", dest, m.Seq, m.SenderPredicates)
	}

	rcvPred := rcv.Predicates()
	switch predicate.Decide(rcvPred, m.SenderPredicates) {
	case predicate.Accept:
		r.accepted.Add(1)
		if log != nil {
			log.Addf(r.now(), trace.KindMsgAccept, dest, "seq %d from %v", m.Seq, sender)
		}
		rcv.Deliver(m)
		return nil
	case predicate.Ignore:
		r.ignored.Add(1)
		if log != nil {
			log.Addf(r.now(), trace.KindMsgIgnore, dest, "seq %d from %v (conflicting worlds)", m.Seq, sender)
		}
		return nil
	default: // Split
		assume, deny, err := predicate.SplitWorlds(rcvPred, m.SenderPredicates, sender)
		if err != nil {
			// The receiver cannot coherently assume either outcome;
			// treat as ignore (the sender's world is already dead from
			// the receiver's perspective).
			r.ignored.Add(1)
			if log != nil {
				log.Addf(r.now(), trace.KindMsgIgnore, dest, "seq %d from %v (split impossible: %v)", m.Seq, sender, err)
			}
			return nil
		}
		r.splits.Add(1)
		if log != nil {
			log.Addf(r.now(), trace.KindMsgSplit, dest, "seq %d from %v", m.Seq, sender)
		}
		if err := rcv.Split(assume, deny, m); err != nil {
			return fmt.Errorf("split receiver %v: %w", dest, err)
		}
		return nil
	}
}
