package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
)

// busyAlt succeeds after holding the processor for d: it never yields,
// so with one processor whichever alternative runs first wins.
func busyAlt(name string, d time.Duration) core.Alt {
	return core.Alt{Name: name, Body: func(w *core.World) error {
		for start := time.Now(); time.Since(start) < d; {
		}
		return nil
	}}
}

// TestLearnedOrderIsRunOrder: the order the history learns is the order
// a wave runs in. With one processor and one worker, the alternative the
// history knows to be 10× faster runs first and wins although it is
// declared second; its sibling, eliminated unstarted, is charged no play.
func TestLearnedOrderIsRunOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const jobs = 100
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, MaxDegree: 2, QueueDepth: jobs})
	p.History().Record("learned", "fast", 200*time.Microsecond)
	p.History().Record("learned", "slow", 2*time.Millisecond)

	start := time.Now()
	tickets := make([]*Ticket, jobs)
	for i := range tickets {
		tk, err := p.Submit(Job{
			Kind: "learned",
			Name: fmt.Sprintf("job-%d", i),
			Alts: []core.Alt{busyAlt("slow", 2*time.Millisecond), busyAlt("fast", 200*time.Microsecond)},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets[i] = tk
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fastWins := 0
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if res.Status != StatusDone {
			t.Fatalf("job %d: status %v (err %v), want done", i, res.Status, res.Err)
		}
		if res.Winner == "fast" {
			fastWins++
		}
	}
	t.Logf("fast won %d of %d jobs in %v", fastWins, jobs, time.Since(start))
	if raceEnabled {
		return // the race detector randomises the run-next slot
	}
	if fastWins < 95 {
		t.Fatalf("fast won %d of %d jobs, want >= 95", fastWins, jobs)
	}
	if o := p.History().Order("learned", []string{"slow", "fast"}); o[0] != 1 {
		t.Fatalf("learned order = %v, want fast first", o)
	}
}

// TestObserverUnstartedIsNoPlay: a child eliminated before
// it started is no play; one cancelled after it started is.
func TestObserverUnstartedIsNoPlay(t *testing.T) {
	h := NewHistory()
	o := newAltObserver(h, "k")
	now := time.Now()
	o.ChildSpawned(ids.PID(1), "queued", now)
	o.ChildSpawned(ids.PID(2), "casualty", now)
	o.ChildSpawned(ids.PID(3), "winner", now)
	o.ChildExit(ids.PID(3), core.OutcomeWin, now.Add(time.Millisecond), 0)
	o.ChildExit(ids.PID(2), core.OutcomeCancelled, now.Add(time.Millisecond), 0)
	o.ChildExit(ids.PID(1), core.OutcomeUnstarted, now.Add(time.Millisecond), 0)

	_, views := h.OrderUCB("k", []string{"queued", "casualty", "winner"}, 0)
	for i, want := range []struct {
		plays, wins int64
		hasTau      bool
	}{{0, 0, false}, {1, 0, false}, {1, 1, true}} {
		v := views[i]
		if v.plays != want.plays || v.wins != want.wins || v.hasTau != want.hasTau {
			t.Fatalf("alternative %d: plays=%d wins=%d hasTau=%v, want %d/%d/%v",
				i, v.plays, v.wins, v.hasTau, want.plays, want.wins, want.hasTau)
		}
	}
	if _, ok := h.Estimate("k", "queued"); ok {
		t.Fatal("an unstarted alternative produced a latency sample")
	}
}
