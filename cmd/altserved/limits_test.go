package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSubmitBodyTooLarge: a POST /jobs body over maxSubmitBytes is cut
// off and answered 413, whatever it holds.
func TestSubmitBodyTooLarge(t *testing.T) {
	ts, pool := testServer(t)
	body, err := json.Marshal(submitRequest{
		Kind:    "prolog",
		Query:   "likes(X, c)",
		Program: strings.Repeat("likes(bob, c). ", maxSubmitBytes/15+1),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if got := pool.Stats().JobsSubmitted; got != 0 {
		t.Fatalf("jobs submitted = %d, want 0", got)
	}
}

// TestRForkDropsOutOfRangeStmSpec: a typed stm spec off the rfork wire
// whose counts exceed the caps is dropped by the receiving daemon. The
// receiver handles its rfork frames in arrival order, so once the valid
// spec sent after it has been admitted, the dropped one has been seen.
func TestRForkDropsOutOfRangeStmSpec(t *testing.T) {
	nodes := testCluster(t, 2)
	to := nodes[1].state.node
	for _, req := range []submitRequest{
		{Kind: "stm", Alts: 1_000_000_000},
		{Kind: "stm", Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.3, Seed: 5},
	} {
		if err := nodes[0].state.rfork(to, 0, req); err != nil {
			t.Fatalf("typed stm rfork: %v", err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for nodes[1].state.rforksIn.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer never admitted the valid spec")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if in, sub := nodes[1].state.rforksIn.Load(), nodes[1].pool.Stats().JobsSubmitted; in != 1 || sub != 1 {
		t.Fatalf("rforksIn = %d, jobs submitted = %d; want 1 each (the out-of-range spec dropped)", in, sub)
	}
}
