package msg

import (
	"sync"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/predicate"
)

// Concurrent-sender router test (run with -race): many speculative
// worlds — organized into sibling groups whose members are mutually
// exclusive — stamp messages for one splitting receiver through the
// lock-free send path, and one receive loop decides each message for
// every live copy in order, the way the core runtime's server loop
// does: an accept delivers, a split leaves the copy on the deny side and
// adds an assume-copy, with the copy's history forked, that takes the
// message.
//
// Invariants checked after the storm:
//   - counter conservation: every stamp counted once as sent, and every
//     message decided exactly once per copy live when it was dequeued;
//   - copy conservation: every counted split produced exactly one new
//     copy;
//   - consistency: a copy only ever delivered messages its predicate
//     set accepts — and therefore never messages from two different
//     members of the same sibling group (that would be an observable
//     pair of mutually exclusive alternatives);
//   - the winner's writes survive: a copy that assumes a sender
//     completes holds every message that sender sent, in send order.

type raceCopy struct {
	preds     *predicate.Set
	delivered []Message
}

func TestConcurrentSendersSplitLineage(t *testing.T) {
	const (
		groups    = 3 // independent blocks
		siblings  = 3 // mutually exclusive alternatives per block
		committed = 3 // resolved senders with empty predicate sets
		perSender = 40
		senders   = groups*siblings + committed
	)
	r := NewRouter()
	const dest = ids.PID(1)
	queue := make(chan Message, senders*perSender)

	// senderPID spaces sender ids well away from the receiver's.
	senderPID := func(g, s int) ids.PID { return ids.PID(10_000 + g*100 + s) }

	var wg sync.WaitGroup
	storm := func(sender ids.PID, preds *predicate.Set) {
		defer wg.Done()
		for i := 0; i < perSender; i++ {
			queue <- r.Stamp(sender, preds, dest, i)
		}
	}
	for g := 0; g < groups; g++ {
		for s := 0; s < siblings; s++ {
			// Alternative s of block g: "I complete, my siblings don't."
			musts := []int64{int64(senderPID(g, s))}
			var cants []int64
			for o := 0; o < siblings; o++ {
				if o != s {
					cants = append(cants, int64(senderPID(g, o)))
				}
			}
			wg.Add(1)
			go storm(senderPID(g, s), mustPred(t, musts, cants))
		}
	}
	for c := 0; c < committed; c++ {
		wg.Add(1)
		go storm(ids.PID(20_000+c), predicate.New())
	}

	// The receive loop.
	copies := []*raceCopy{{preds: predicate.New()}}
	decisions := 0
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for m := range queue {
			for _, c := range copies[:len(copies):len(copies)] {
				decisions++
				switch d, assume, deny := r.Decide(c.preds, m.SenderPredicates, m); d {
				case predicate.Accept:
					c.delivered = append(c.delivered, m)
				case predicate.Split:
					nc := &raceCopy{preds: assume, delivered: append(append([]Message(nil), c.delivered...), m)}
					c.preds = deny
					copies = append(copies, nc)
					r.CountSplit()
				}
			}
		}
	}()
	wg.Wait()
	close(queue)
	<-loopDone

	st := r.Stats()
	if st.Sent != senders*perSender {
		t.Fatalf("sent = %d, want %d", st.Sent, senders*perSender)
	}
	if st.Accepted+st.Ignored+st.Splits != decisions {
		t.Fatalf("counters leak: %+v for %d decisions", st, decisions)
	}
	if st.Splits == 0 {
		t.Fatalf("no splits under %d speculative senders: %+v", groups*siblings, st)
	}
	if want := 1 + st.Splits; len(copies) != want {
		t.Fatalf("%d copies for %d splits, want %d", len(copies), st.Splits, want)
	}

	for _, c := range copies {
		groupSender := map[int]ids.PID{}
		next := map[ids.PID]int{}
		for _, m := range c.delivered {
			if predicate.Decide(c.preds, m.SenderPredicates) != predicate.Accept {
				t.Fatalf("copy (preds %v) delivered a message its predicates reject: from %v preds %v",
					c.preds, m.Sender, m.SenderPredicates)
			}
			if m.Data != next[m.Sender] {
				t.Fatalf("copy (preds %v) took message %v from %v, want %d: per-sender order broken",
					c.preds, m.Data, m.Sender, next[m.Sender])
			}
			next[m.Sender]++
			if m.Sender >= 20_000 {
				continue // committed sender: consistent with every copy
			}
			g := (int(m.Sender) - 10_000) / 100
			if prev, seen := groupSender[g]; seen && prev != m.Sender {
				t.Fatalf("copy (preds %v) observed two mutually exclusive alternatives of block %d: %v and %v",
					c.preds, g, prev, m.Sender)
			}
			groupSender[g] = m.Sender
		}
		for g := 0; g < groups; g++ {
			for s := 0; s < siblings; s++ {
				if p := senderPID(g, s); c.preds.MustComplete(p) && next[p] != perSender {
					t.Fatalf("copy (preds %v) assumes %v but holds %d of its %d messages",
						c.preds, p, next[p], perSender)
				}
			}
		}
		for k := 0; k < committed; k++ {
			if p := ids.PID(20_000 + k); next[p] != perSender {
				t.Fatalf("copy (preds %v) holds %d of committed sender %v's %d messages",
					c.preds, next[p], p, perSender)
			}
		}
	}
}
