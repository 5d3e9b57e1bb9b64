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
// decides and dispatches.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/epoch"
	"altrun/internal/ids"
	"altrun/internal/predicate"
	"altrun/internal/trace"
)

// ErrUnknownReceiver is returned when the destination is not registered.
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
	// (predicates `deny`) which must not. The implementation registers
	// the copies with the router and unregisters itself.
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

// Router dispatches messages to registered receivers. It is safe for
// concurrent use. The send path takes no lock at all: receiver lookup
// is a pinned probe of an epoch-reclaimed table (internal/epoch) and
// the sequence/decision counters are atomics, so concurrent senders —
// even to the same receiver — never serialize in the router.
type Router struct {
	dom *epoch.Domain
	// receivers maps PID → boxed Receiver. The box exists because the
	// epoch map stores pointers-to-V and an interface value is not
	// addressable on its own.
	receivers *epoch.Map[recvBox]

	seq      atomic.Int64
	sent     atomic.Int64
	accepted atomic.Int64
	ignored  atomic.Int64
	splits   atomic.Int64

	now func() time.Time
	log *trace.Log
}

// recvBox is an immutable box around one registered receiver.
type recvBox struct{ rcv Receiver }

// NewRouter returns an empty router. now supplies trace timestamps
// (virtual or wall time); log may be nil.
func NewRouter(now func() time.Time, log *trace.Log) *Router {
	d := epoch.NewDomain()
	return &Router{
		dom:       d,
		receivers: epoch.NewMap[recvBox](d),
		now:       now,
		log:       log,
	}
}

// Register makes rcv addressable. Re-registering a PID replaces the
// previous receiver.
func (r *Router) Register(rcv Receiver) {
	r.receivers.Set(rcv.PID(), &recvBox{rcv: rcv})
}

// Unregister removes the receiver for pid.
func (r *Router) Unregister(pid ids.PID) {
	r.receivers.Delete(pid)
}

// lookup returns the receiver for pid, or nil. Lock-free.
func (r *Router) lookup(pid ids.PID) Receiver {
	if pid <= 0 {
		return nil
	}
	g := r.dom.Pin()
	b := r.receivers.Get(pid)
	g.Unpin()
	if b == nil {
		return nil
	}
	return b.rcv
}

// Registered reports whether pid is addressable.
func (r *Router) Registered(pid ids.PID) bool {
	return r.lookup(pid) != nil
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
// pid, applying the accept/ignore/split rule. The message carries
// senderPred itself — sets are immutable, so one may be shared by any
// number of sends (a fan-out to split copies). The receiver's set is
// read once per send.
func (r *Router) Send(sender ids.PID, senderPred *predicate.Set, dest ids.PID, data any) error {
	rcv := r.lookup(dest)
	if rcv == nil {
		return fmt.Errorf("%w: %v", ErrUnknownReceiver, dest)
	}
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

// Mailbox is a simple unbounded FIFO queue usable as a Receiver's
// delivery buffer in real (goroutine) mode. It is safe for concurrent
// use.
type Mailbox struct {
	mu     sync.Mutex
	queue  []Message
	notify chan struct{}
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{notify: make(chan struct{}, 1)}
}

// Put enqueues m.
func (b *Mailbox) Put(m Message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// Len returns the queue length.
func (b *Mailbox) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// TryGet dequeues a message if one is available.
func (b *Mailbox) TryGet() (Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return Message{}, false
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	return m, true
}

// Get dequeues a message, blocking until one arrives, the timer (if
// timeout >= 0) fires, or cancel is closed. ok is false on timeout or
// cancellation.
func (b *Mailbox) Get(timeout time.Duration, cancel <-chan struct{}) (Message, bool) {
	var timer *time.Timer
	var timeC <-chan time.Time
	if timeout >= 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	for {
		if m, ok := b.TryGet(); ok {
			return m, true
		}
		select {
		case <-b.notify:
		case <-timeC:
			return Message{}, false
		case <-cancel:
			return Message{}, false
		}
	}
}

// Drain returns and removes all queued messages (used when splitting a
// receiver: the pending queue is duplicated into both copies).
func (b *Mailbox) Drain() []Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.queue
	b.queue = nil
	return out
}
