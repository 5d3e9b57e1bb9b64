package msg

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/predicate"
	"altrun/internal/trace"
)

// Concurrent-sender router test (run with -race): many speculative
// worlds — organized into sibling groups whose members are mutually
// exclusive — hammer a splitting receiver lineage through the lock-free
// send path. The receiver implementation mirrors the core runtime's
// split contract in miniature: make the assume/deny copies live, retire
// the split copy, and the senders fan out to every live copy, as core's
// alias walk does. Like core, the harness keeps the live index and
// resolves each destination just before sending to it.
//
// Invariants checked after the storm:
//   - counter conservation: every send was decided exactly once
//     (Sent == Accepted + Ignored + Splits);
//   - copy conservation: every counted split produced exactly two
//     copies (split chains terminate — no lost or duplicated lineage);
//   - consistency: a copy only ever delivered messages its predicate
//     set accepts — and therefore never messages from two different
//     members of the same sibling group (that would be an observable
//     pair of mutually exclusive alternatives).

type raceHarness struct {
	r      *Router
	pidSeq atomic.Int64
	drops  atomic.Int64 // Split calls that lost to a concurrent split

	mu   sync.Mutex
	live map[ids.PID]*raceCopy
	all  []*raceCopy
}

type raceCopy struct {
	h     *raceHarness
	pid   ids.PID
	preds *predicate.Set

	mu        sync.Mutex
	dead      bool
	delivered []Message
}

func (c *raceCopy) PID() ids.PID               { return c.pid }
func (c *raceCopy) Predicates() *predicate.Set { return c.preds }

func (c *raceCopy) Deliver(m Message) {
	c.mu.Lock()
	c.delivered = append(c.delivered, m)
	c.mu.Unlock()
}

func (c *raceCopy) Split(assume, deny *predicate.Set, m Message) error {
	c.mu.Lock()
	wasDead := c.dead
	c.dead = true
	c.mu.Unlock()
	if wasDead {
		// A concurrent sender already split this copy; its successors
		// are live and will decide this sender's later messages.
		c.h.drops.Add(1)
		return nil
	}
	a := c.h.addCopy(assume)
	d := c.h.addCopy(deny)
	// The pending message is re-decided against both fresh copies, the
	// way the runtime duplicates a split server's mailbox: the assume
	// copy accepts it, the deny copy's predicates contradict it.
	for _, nc := range []*raceCopy{a, d} {
		if predicate.Decide(nc.preds, m.SenderPredicates) == predicate.Accept {
			nc.Deliver(m)
		}
	}
	c.h.remove(c.pid)
	return nil
}

func (h *raceHarness) addCopy(preds *predicate.Set) *raceCopy {
	c := &raceCopy{h: h, pid: ids.PID(h.pidSeq.Add(1)), preds: preds}
	h.mu.Lock()
	h.live[c.pid] = c
	h.all = append(h.all, c)
	h.mu.Unlock()
	return c
}

func (h *raceHarness) remove(pid ids.PID) {
	h.mu.Lock()
	delete(h.live, pid)
	h.mu.Unlock()
}

// lookup resolves pid to its live copy, or to a nil Receiver once the
// copy has split.
func (h *raceHarness) lookup(pid ids.PID) Receiver {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := h.live[pid]; c != nil {
		return c
	}
	return nil
}

// livePIDs snapshots the live copy set for one fan-out round.
func (h *raceHarness) livePIDs() []ids.PID {
	h.mu.Lock()
	defer h.mu.Unlock()
	pids := make([]ids.PID, 0, len(h.live))
	for pid := range h.live {
		pids = append(pids, pid)
	}
	return pids
}

func TestConcurrentSendersSplitLineage(t *testing.T) {
	const (
		groups    = 3 // independent blocks
		siblings  = 3 // mutually exclusive alternatives per block
		committed = 3 // resolved senders with empty predicate sets
		perSender = 40
	)
	h := &raceHarness{
		r:    NewRouter(time.Now, trace.NewLog()),
		live: map[ids.PID]*raceCopy{},
	}
	h.addCopy(predicate.New()) // the root copy, no assumptions

	// senderPID spaces sender ids well away from copy pids.
	senderPID := func(g, s int) ids.PID { return ids.PID(10_000 + g*100 + s) }

	var wg sync.WaitGroup
	storm := func(sender ids.PID, preds *predicate.Set) {
		defer wg.Done()
		for i := 0; i < perSender; i++ {
			for _, pid := range h.livePIDs() {
				err := h.r.Send(sender, preds, h.lookup(pid), i)
				if err != nil && !errors.Is(err, ErrUnknownReceiver) {
					t.Errorf("send from %v to %v: %v", sender, pid, err)
				}
			}
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
	wg.Wait()

	st := h.r.Stats()
	if st.Sent != st.Accepted+st.Ignored+st.Splits {
		t.Fatalf("counters leak: %+v", st)
	}
	if st.Splits == 0 {
		t.Fatalf("no splits under %d speculative senders: %+v", groups*siblings, st)
	}
	h.mu.Lock()
	total := len(h.all)
	h.mu.Unlock()
	if want := 1 + 2*(st.Splits-int(h.drops.Load())); total != want {
		t.Fatalf("%d copies for %d splits (%d dropped): want %d — split chain lost or duplicated a lineage",
			total, st.Splits, h.drops.Load(), want)
	}

	for _, c := range h.all {
		c.mu.Lock()
		delivered := c.delivered
		c.mu.Unlock()
		groupSender := map[int]ids.PID{}
		for _, m := range delivered {
			if predicate.Decide(c.preds, m.SenderPredicates) != predicate.Accept {
				t.Fatalf("copy %v (preds %v) delivered a message its predicates reject: from %v preds %v",
					c.pid, c.preds, m.Sender, m.SenderPredicates)
			}
			if m.Sender < 10_000 || m.Sender >= 20_000 {
				continue // committed sender: consistent with every copy
			}
			g := (int(m.Sender) - 10_000) / 100
			if prev, seen := groupSender[g]; seen && prev != m.Sender {
				t.Fatalf("copy %v observed two mutually exclusive alternatives of block %d: %v and %v",
					c.pid, g, prev, m.Sender)
			}
			groupSender[g] = m.Sender
		}
	}
}
