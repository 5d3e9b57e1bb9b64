package main

import (
	"fmt"
	"testing"
	"time"
)

// TestClusterRForkEveryKind forwards one job of each kind — sort,
// prolog, stm and choo — to a peer. Each crosses the wire as its JSON
// request, completes on the peer under the peer's own consensus key,
// and leaves a timeline in the peer's flight recorder that carries the
// TraceID the origin stamped on it.
func TestClusterRForkEveryKind(t *testing.T) {
	nodes := testCluster(t, 2)
	origin, to := nodes[0].state, nodes[1].state.node

	reqs := []submitRequest{
		{Kind: "sort", Input: []int{9, 7, 8}},
		{Kind: "prolog", Program: "likes(bob, c).", Query: "likes(X, c)"},
		{Kind: "stm", Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.3, Seed: 5},
		{Kind: "choo", Program: "proc a { x := 1; }\nproc b { x := 2; }\nchoo(a, b);\n"},
	}
	want := map[string]string{} // TraceID → kind
	for i, req := range reqs {
		if err := origin.rfork(to, req); err != nil {
			t.Fatalf("%s rfork: %v", req.Kind, err)
		}
		want[fmt.Sprintf("n%d-r%d", origin.node, i+1)] = req.Kind
	}
	if got := origin.rforksOut.Load(); got != int64(len(reqs)) {
		t.Fatalf("rforksOut = %d, want %d", got, len(reqs))
	}

	peer := nodes[1]
	deadline := time.Now().Add(15 * time.Second)
	for {
		// A job is counted completed before its sampled timeline is
		// recorded, so wait for the timelines too.
		seen := map[string]bool{}
		for _, tl := range peer.rec.Recent() {
			if _, ok := want[tl.TraceID]; ok {
				seen[tl.TraceID] = true
			}
		}
		st := peer.pool.Stats()
		if peer.state.rforksIn.Load() == int64(len(reqs)) && st.JobsCompleted == int64(len(reqs)) && len(seen) == len(want) {
			break
		}
		if time.Now().After(deadline) {
			for id, kind := range want {
				if !seen[id] {
					t.Errorf("no %s timeline on the peer carries TraceID %q", kind, id)
				}
			}
			t.Fatalf("peer never completed every kind: rforksIn=%d stats=%+v",
				peer.state.rforksIn.Load(), st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := peer.state.rforksDropped.Load(); d != 0 {
		t.Fatalf("rforksDropped = %d, want 0", d)
	}
}
