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
	if err := r.Send(ids.PID(1), predicate.New(), rcv, "hello"); err != nil {
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
	senderPred := mustPred(t, []int64{5}, nil)
	for _, rcv := range []*fakeReceiver{accept, split} {
		if err := r.Send(ids.PID(1), senderPred, rcv, "x"); err != nil {
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
	if err := r.Send(ids.PID(1), mustPred(t, []int64{7}, nil), rcv, "x"); err != nil {
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
	sender := ids.PID(9)
	if err := r.Send(sender, mustPred(t, []int64{9}, nil), rcv, "spec"); err != nil {
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
	// Sender set {must 4}: no conflict with {cant 9}, not implied → Split;
	// but assume-world needs must(9) which contradicts cant(9).
	if err := r.Send(ids.PID(9), mustPred(t, []int64{4}, nil), rcv, "x"); err != nil {
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
	err := r.Send(ids.PID(9), mustPred(t, []int64{9}, nil), rcv, "x")
	if err == nil {
		t.Fatal("split error must propagate")
	}
}

// TestUnknownReceiver: a destination the caller could not resolve is
// refused before anything is counted or traced.
func TestUnknownReceiver(t *testing.T) {
	r := newRouter()
	err := r.Send(ids.PID(1), predicate.New(), nil, "x")
	if !errors.Is(err, ErrUnknownReceiver) {
		t.Fatalf("err = %v", err)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %+v, want none counted", st)
	}
}

func TestSeqMonotonic(t *testing.T) {
	r := newRouter()
	rcv := &fakeReceiver{pid: ids.PID(2), preds: predicate.New()}
	for i := 0; i < 5; i++ {
		if err := r.Send(ids.PID(1), predicate.New(), rcv, i); err != nil {
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
