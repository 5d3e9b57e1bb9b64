package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	istm "altrun/internal/stm"
	"altrun/internal/transport"
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
// whose counts exceed the caps is dropped by the receiving daemon.
func TestRForkDropsOutOfRangeStmSpec(t *testing.T) {
	rforkDropsStmSpecs(t, submitRequest{Kind: "stm", Alts: 1_000_000_000})
}

// TestRForkDropsNonFiniteStmSpec: the rfork codec carries a float's bits
// as they are, so a +Inf zipf arrives intact, and the receiving daemon
// drops the spec rather than build a block whose key sampler never
// returns.
func TestRForkDropsNonFiniteStmSpec(t *testing.T) {
	bad := submitRequest{Kind: "stm", Keys: 4, Alts: 3, Ops: 6, Zipf: math.Inf(1), Seed: 5}
	frame, _, err := transport.AppendEnvelope(nil, transport.Envelope{Payload: stmSpecFrom(bad)})
	if err != nil {
		t.Fatal(err)
	}
	env, err := transport.DecodeEnvelope(frame)
	if err != nil {
		t.Fatal(err)
	}
	if spec, ok := env.Payload.(istm.TxnSpec); !ok || !math.IsInf(spec.Zipf, 1) {
		t.Fatalf("decoded %#v, want a TxnSpec with zipf +Inf", env.Payload)
	}
	rforkDropsStmSpecs(t, bad)
}

// rforkDropsStmSpecs rforks each bad request, then a valid one, to a
// peer as typed stm specs, and fails unless the peer admitted the valid
// one alone. The receiver handles its rfork frames in arrival order, so
// once the valid spec sent last has run, the others have been seen (a
// bad spec that was admitted instead may never finish).
func rforkDropsStmSpecs(t *testing.T, bad ...submitRequest) {
	t.Helper()
	nodes := testCluster(t, 2)
	to := nodes[1].state.node
	valid := submitRequest{Kind: "stm", Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.3, Seed: 5}
	for _, req := range append(bad, valid) {
		if err := nodes[0].state.rfork(to, 0, req); err != nil {
			t.Fatalf("typed stm rfork: %v", err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for st := nodes[1].pool.Stats(); st.JobsCompleted+st.JobsFailed == 0; st = nodes[1].pool.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("peer never ran the valid spec")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if in, sub := nodes[1].state.rforksIn.Load(), nodes[1].pool.Stats().JobsSubmitted; in != 1 || sub != 1 {
		t.Fatalf("rforksIn = %d, jobs submitted = %d; want 1 each (the bad specs dropped)", in, sub)
	}
}
