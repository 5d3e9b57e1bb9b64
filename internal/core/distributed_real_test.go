package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/transport"

	// The fleet's TCP framing needs the protocol messages' wire codecs.
	_ "altrun/internal/transport/codec"
)

// TestConsensusCancelWinnerRace races root.Cancel (the abandon-block
// path) against an instantly-committing alternative whose commit
// arbiter is a live majority-consensus group over the real TCP
// transport. Whatever the interleaving, the quorum's at-most-one
// semantics must hold: either the block commits (err == nil) and the
// voters agree on a single winner, or it is abandoned (ErrEliminated) —
// and in both cases every speculative world is reclaimed.
func TestConsensusCancelWinnerRace(t *testing.T) {
	fleet, err := transport.NewTCPFleet(3, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	eps := fleet.Endpoints()
	members := make([]ids.NodeID, len(eps))
	var voters []*consensus.Voter
	for i, ep := range eps {
		members[i] = ep.ID()
		voters = append(voters, consensus.StartVoter(ep, ""))
	}
	defer func() {
		for _, v := range voters {
			v.Stop()
		}
	}()

	co := consensus.StartCoalescer(eps[0], members, "", consensus.Config{
		ReplyTimeout: time.Second, BackoffBase: 5 * time.Millisecond, MaxAttempts: 4,
	})
	defer co.Stop()

	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("race/%d", i)
		claim := func(w *World) bool {
			return co.Claim(transport.Background(), key, w.PID()).Won
		}

		rt := New(Config{PageSize: 64})
		root, err := rt.NewRootWorld("main", 1024)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Cancel()
		}()
		_, err = root.RunAlt(Options{Claim: claim},
			Alt{Name: "instant", Body: func(w *World) error {
				return w.WriteAt([]byte("won"), 0)
			}},
		)
		wg.Wait()
		if err != nil && !errors.Is(err, ErrEliminated) {
			t.Fatalf("iter %d: err = %v, want nil or ErrEliminated", i, err)
		}
		// At-most-one commit: any voters that saw this key's announcement
		// must name the same PID.
		if err == nil {
			seen := map[ids.PID]bool{}
			for _, v := range voters {
				if pid, ok := v.Winner(key); ok {
					seen[pid] = true
				}
			}
			if len(seen) > 1 {
				t.Fatalf("iter %d: voters disagree on the winner: %v", i, seen)
			}
		}
		rt.Wait()
		if n := rt.LiveWorlds(); n != 1 {
			t.Fatalf("iter %d: LiveWorlds = %d, want 1 (err was %v)", i, n, err)
		}
		rt.Shutdown(root)
		if n := rt.LiveWorlds(); n != 0 {
			t.Fatalf("iter %d: LiveWorlds after shutdown = %d", i, n)
		}
	}
}
