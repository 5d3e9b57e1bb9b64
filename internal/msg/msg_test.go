package msg

import (
	"testing"

	"altrun/internal/ids"
	"altrun/internal/predicate"
)

func TestSendAccept(t *testing.T) {
	r := NewRouter()
	m := r.Stamp(ids.PID(1), predicate.New(), ids.PID(2), "hello")
	if m.Sender != ids.PID(1) || m.Dest != ids.PID(2) || m.Seq == 0 || m.Data != "hello" {
		t.Fatalf("control info wrong: %+v", m)
	}
	if d, _, _ := r.Decide(predicate.New(), m.SenderPredicates, m); d != predicate.Accept {
		t.Fatalf("decision = %v, want accept", d)
	}
	st := r.Stats()
	if st.Sent != 1 || st.Accepted != 1 || st.Ignored != 0 || st.Splits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendTakesOneSnapshotEach: the sender's set is the caller's
// snapshot and travels as given — no copy per send, so every version of
// a split receiver decides against one — and a split's sets are its
// own: the shared snapshot is untouched.
func TestSendTakesOneSnapshotEach(t *testing.T) {
	r := NewRouter()
	senderPred := mustPred(t, []int64{5}, nil)
	m := r.Stamp(ids.PID(1), senderPred, ids.PID(3), "x")
	if m.SenderPredicates != senderPred {
		t.Fatal("the message must carry the snapshot it was given")
	}
	if d, _, _ := r.Decide(mustPred(t, []int64{5}, nil), m.SenderPredicates, m); d != predicate.Accept {
		t.Fatalf("implied receiver decision = %v, want accept", d)
	}
	d, assume, _ := r.Decide(predicate.New(), m.SenderPredicates, m)
	if d != predicate.Split || !assume.MustComplete(ids.PID(5)) {
		t.Fatalf("split from the single snapshot = %v %v", d, assume)
	}
	if senderPred.MustComplete(ids.PID(1)) || senderPred.Len() != 1 {
		t.Fatalf("sender snapshot mutated by the split: %v", senderPred)
	}
}

func TestSendIgnoreConflicting(t *testing.T) {
	r := NewRouter()
	// Receiver assumes p7 fails; sender assumes p7 completes.
	m := r.Stamp(ids.PID(1), mustPred(t, []int64{7}, nil), ids.PID(2), "x")
	if d, _, _ := r.Decide(mustPred(t, nil, []int64{7}), m.SenderPredicates, m); d != predicate.Ignore {
		t.Fatalf("conflicting message decision = %v, want ignore", d)
	}
	if st := r.Stats(); st.Ignored != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSendSplit: Decide returns the two copies' sets for a receiver
// that must make a further assumption, and leaves the split to be
// counted by the caller that forks the receiver; a message stamped once
// is counted sent once however many copies decide it.
func TestSendSplit(t *testing.T) {
	r := NewRouter()
	rcv := predicate.New()
	sender := ids.PID(9)
	m := r.Stamp(sender, mustPred(t, []int64{9}, nil), ids.PID(2), "spec")
	d, assume, deny := r.Decide(rcv, m.SenderPredicates, m)
	if d != predicate.Split {
		t.Fatalf("decision = %v, want split", d)
	}
	if !assume.MustComplete(sender) || !deny.CantComplete(sender) {
		t.Fatalf("split sets wrong: assume=%v deny=%v", assume, deny)
	}
	if st := r.Stats(); st.Splits != 0 {
		t.Fatalf("Decide counted a split nothing forked: %+v", st)
	}
	r.CountSplit() // the receiver is forked
	// The two copies decide the sender's next message: one accepts, one
	// ignores.
	m2 := r.Stamp(sender, m.SenderPredicates, ids.PID(2), "again")
	if d, _, _ := r.Decide(assume, m2.SenderPredicates, m2); d != predicate.Accept {
		t.Fatalf("assume-copy decision = %v, want accept", d)
	}
	if d, _, _ := r.Decide(deny, m2.SenderPredicates, m2); d != predicate.Ignore {
		t.Fatalf("deny-copy decision = %v, want ignore", d)
	}
	if st := r.Stats(); st != (Stats{Sent: 2, Accepted: 1, Ignored: 1, Splits: 1}) {
		t.Fatalf("stats = %+v", st)
	}
	// A dead sender's message is ignored without looking at the sets.
	if d, _, _ := r.Decide(rcv, nil, m2); d != predicate.Ignore {
		t.Fatalf("dead sender's message decision = %v, want ignore", d)
	}
}

func TestSendSplitImpossibleIgnores(t *testing.T) {
	r := NewRouter()
	// Receiver assumes the sender (pid 9) fails; the sender's set {must
	// 4} neither conflicts with that nor is implied → Split, but the
	// assume-world would need must(9), which contradicts cant(9).
	m := r.Stamp(ids.PID(9), mustPred(t, []int64{4}, nil), ids.PID(2), "x")
	if d, _, _ := r.Decide(mustPred(t, nil, []int64{9}), m.SenderPredicates, m); d != predicate.Ignore {
		t.Fatalf("impossible split decision = %v, want ignore", d)
	}
	if st := r.Stats(); st.Ignored != 1 || st.Splits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeqMonotonic(t *testing.T) {
	r := NewRouter()
	var prev int64
	for i := 0; i < 5; i++ {
		m := r.Stamp(ids.PID(1), predicate.New(), ids.PID(2), i)
		if m.Seq <= prev {
			t.Fatal("sequence numbers must increase")
		}
		prev = m.Seq
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
