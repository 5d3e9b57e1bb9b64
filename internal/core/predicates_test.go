package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"altrun/internal/ids"
	"altrun/internal/predicate"
)

// TestPredicateSnapshotsSurviveResolution: a world hands out its set
// without copying, so resolutions must replace the set rather than edit
// it. Eight goroutines decide messages against the world's Predicates()
// snapshots while its assumptions resolve one by one; each decision
// must agree with the snapshot it was made on, a snapshot must read the
// same before and after its decision, and the snapshot taken before any
// resolution must still list every PID afterwards. Run under -race.
func TestPredicateSnapshotsSurviveResolution(t *testing.T) {
	rt := New(Config{})
	deps := make([]ids.PID, 64)
	for i := range deps {
		deps[i] = bare(rt).pid
	}
	w := registerBenchWorld(t, rt, "subject", deps, nil)
	before := w.Predicates()

	senders := make([]*predicate.Set, len(deps))
	for i, p := range deps {
		s, err := predicate.New().WithComplete(p)
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = s
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				k := i % len(deps)
				snap := w.Predicates()
				n := snap.Len()
				d := predicate.Decide(snap, senders[k])
				want := predicate.Split // a resolved assumption is gone, not denied
				if snap.MustComplete(deps[k]) {
					want = predicate.Accept
				}
				if d != want || snap.Len() != n {
					errs <- "a decision disagreed with its snapshot, or the snapshot changed under it"
					return
				}
			}
		}(g)
	}
	for _, p := range deps {
		rt.propagate([]propEvent{{resolvePID: p, completed: true}})
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	if got := before.MustList(); !slices.Equal(got, deps) || before.Len() != len(deps) {
		t.Fatalf("the snapshot taken before the resolutions now lists %v, want all %d deps", got, len(deps))
	}
	if after := w.Predicates(); after.Unresolved() {
		t.Fatalf("every assumption resolved, but the world still holds %v", after)
	}
}
