package msg

import (
	"errors"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/predicate"
	"altrun/internal/trace"
)

// fakeReceiver records deliveries and splits.
type fakeReceiver struct {
	pid       ids.PID
	preds     *predicate.Set
	delivered []Message
	splits    []struct{ assume, deny *predicate.Set }
	splitErr  error
	snapshots int // Predicates calls: each one takes a world's lock
}

func (f *fakeReceiver) PID() ids.PID { return f.pid }
func (f *fakeReceiver) Predicates() *predicate.Set {
	f.snapshots++
	return f.preds
}
func (f *fakeReceiver) Deliver(m Message) { f.delivered = append(f.delivered, m) }
func (f *fakeReceiver) Split(assume, deny *predicate.Set, m Message) error {
	if f.splitErr != nil {
		return f.splitErr
	}
	f.splits = append(f.splits, struct{ assume, deny *predicate.Set }{assume, deny})
	return nil
}

func newRouter() *Router {
	return NewRouter(func() time.Time { return time.Unix(0, 0) }, trace.NewLog())
}

func TestSendAccept(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New()}
	r.Register(rcv)
	if err := r.Send(ids.PID(1), predicate.New(), ids.PID(2), "hello"); err != nil {
		t.Fatal(err)
	}
	if len(rcv.delivered) != 1 || rcv.delivered[0].Data != "hello" {
		t.Fatalf("delivered = %v", rcv.delivered)
	}
	m := rcv.delivered[0]
	if m.Sender != ids.PID(1) || m.Dest != ids.PID(2) || m.Seq == 0 {
		t.Fatalf("control info wrong: %+v", m)
	}
	st := r.Stats()
	if st.Sent != 1 || st.Accepted != 1 || st.Ignored != 0 || st.Splits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendTakesOneSnapshotEach: the sender's set is the caller's
// snapshot and travels as given — no copy per send, so a fan-out to
// split copies shares one — and the receiver is asked for its set once
// per send, whatever the decision (the split path used to ask twice).
func TestSendTakesOneSnapshotEach(t *testing.T) {
	r := newRouter()
	accept := &fakeReceiver{pid: ids.PID(2), preds: mustPred(t, []int64{5}, nil)}
	split := &fakeReceiver{pid: ids.PID(3), preds: predicate.New()}
	r.Register(accept)
	r.Register(split)
	senderPred := mustPred(t, []int64{5}, nil)
	for _, rcv := range []*fakeReceiver{accept, split} {
		if err := r.Send(ids.PID(1), senderPred, rcv.pid, "x"); err != nil {
			t.Fatal(err)
		}
		if rcv.snapshots != 1 {
			t.Fatalf("receiver %v was snapshotted %d times for one send, want 1", rcv.pid, rcv.snapshots)
		}
	}
	if len(accept.delivered) != 1 || accept.delivered[0].SenderPredicates != senderPred {
		t.Fatal("the message must carry the snapshot it was given")
	}
	if len(split.splits) != 1 || !split.splits[0].assume.MustComplete(ids.PID(5)) {
		t.Fatalf("split from the single snapshot = %+v", split.splits)
	}
	// What the split made is its own: the shared snapshot is untouched.
	if senderPred.MustComplete(ids.PID(1)) || senderPred.Len() != 1 {
		t.Fatalf("sender snapshot mutated by the split: %v", senderPred)
	}
}

func TestSendIgnoreConflicting(t *testing.T) {
	r := newRouter()
	// Receiver assumes p7 fails; sender assumes p7 completes.
	rcv := &fakeReceiver{pid: ids.PID(2), preds: mustPred(t, nil, []int64{7})}
	r.Register(rcv)
	if err := r.Send(ids.PID(1), mustPred(t, []int64{7}, nil), ids.PID(2), "x"); err != nil {
		t.Fatal(err)
	}
	if len(rcv.delivered) != 0 {
		t.Fatal("conflicting message must be ignored")
	}
	if st := r.Stats(); st.Ignored != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendSplit(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New()}
	r.Register(rcv)
	sender := ids.PID(9)
	if err := r.Send(sender, mustPred(t, []int64{9}, nil), ids.PID(2), "spec"); err != nil {
		t.Fatal(err)
	}
	if len(rcv.splits) != 1 {
		t.Fatalf("splits = %d, want 1", len(rcv.splits))
	}
	sp := rcv.splits[0]
	if !sp.assume.MustComplete(sender) || !sp.deny.CantComplete(sender) {
		t.Fatalf("split sets wrong: assume=%v deny=%v", sp.assume, sp.deny)
	}
	if st := r.Stats(); st.Splits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendSplitImpossibleIgnores(t *testing.T) {
	r := newRouter()
	// Receiver already assumes the *sender* fails, but the sender's set
	// itself is empty → Decide says Split (empty doesn't conflict? No:
	// receiver has cant(sender); sender set empty ⊆ receiver → Accept).
	// Build a genuine impossible split: receiver assumes p3 fails,
	// sender (pid 9) assumes p3 completes AND receiver assumes 9 fails.
	rp := mustPred(t, nil, []int64{9})
	rcv := &fakeReceiver{pid: ids.PID(2), preds: rp}
	r.Register(rcv)
	// Sender set {must 4}: no conflict with {cant 9}, not implied → Split;
	// but assume-world needs must(9) which contradicts cant(9).
	if err := r.Send(ids.PID(9), mustPred(t, []int64{4}, nil), ids.PID(2), "x"); err != nil {
		t.Fatal(err)
	}
	if len(rcv.splits) != 0 || len(rcv.delivered) != 0 {
		t.Fatal("impossible split must be ignored")
	}
	if st := r.Stats(); st.Ignored != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendSplitErrorPropagates(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New(), splitErr: errors.New("boom")}
	r.Register(rcv)
	err := r.Send(ids.PID(9), mustPred(t, []int64{9}, nil), ids.PID(2), "x")
	if err == nil {
		t.Fatal("split error must propagate")
	}
}

func TestUnknownReceiver(t *testing.T) {
	r := newRouter()
	err := r.Send(ids.PID(1), predicate.New(), ids.PID(42), "x")
	if !errors.Is(err, ErrUnknownReceiver) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterUnregister(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New()}
	r.Register(rcv)
	if !r.Registered(ids.PID(2)) {
		t.Fatal("must be registered")
	}
	r.Unregister(ids.PID(2))
	if r.Registered(ids.PID(2)) {
		t.Fatal("must be unregistered")
	}
	if err := r.Send(ids.PID(1), predicate.New(), ids.PID(2), "x"); err == nil {
		t.Fatal("send to unregistered must fail")
	}
}

func TestSeqMonotonic(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New()}
	r.Register(rcv)
	for i := 0; i < 5; i++ {
		if err := r.Send(ids.PID(1), predicate.New(), ids.PID(2), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(rcv.delivered); i++ {
		if rcv.delivered[i].Seq <= rcv.delivered[i-1].Seq {
			t.Fatal("sequence numbers must increase")
		}
	}
}

func mustPred(t *testing.T, must, cant []int64) *predicate.Set {
	t.Helper()
	s := predicate.New()
	var err error
	for _, p := range must {
		if s, err = s.WithComplete(ids.PID(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range cant {
		if s, err = s.WithFail(ids.PID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestMailboxFIFO(t *testing.T) {
	b := NewMailbox()
	for i := 0; i < 3; i++ {
		b.Put(Message{Seq: int64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < 3; i++ {
		m, ok := b.TryGet()
		if !ok || m.Seq != int64(i) {
			t.Fatalf("TryGet %d = %+v, %v", i, m, ok)
		}
	}
	if _, ok := b.TryGet(); ok {
		t.Fatal("empty TryGet must fail")
	}
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	b := NewMailbox()
	done := make(chan Message, 1)
	go func() {
		m, ok := b.Get(-1, nil)
		if ok {
			done <- m
		}
	}()
	time.Sleep(10 * time.Millisecond)
	b.Put(Message{Seq: 42})
	select {
	case m := <-done:
		if m.Seq != 42 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get did not wake")
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	b := NewMailbox()
	start := time.Now()
	_, ok := b.Get(20*time.Millisecond, nil)
	if ok {
		t.Fatal("expected timeout")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned too early")
	}
}

func TestMailboxGetCancel(t *testing.T) {
	b := NewMailbox()
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := b.Get(-1, cancel)
		done <- ok
	}()
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled Get must report !ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock Get")
	}
}

func TestMailboxDrain(t *testing.T) {
	b := NewMailbox()
	b.Put(Message{Seq: 1})
	b.Put(Message{Seq: 2})
	drained := b.Drain()
	if len(drained) != 2 || b.Len() != 0 {
		t.Fatalf("drained %d, remaining %d", len(drained), b.Len())
	}
}
