package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/consensus"
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

// TestRForkDropsOutOfRangeStmSpec: a forwarded stm request whose
// counts exceed the caps is dropped by the receiving daemon.
func TestRForkDropsOutOfRangeStmSpec(t *testing.T) {
	body, err := json.Marshal(submitRequest{Kind: "stm", Alts: 1_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	rforkDrops(t, body)
}

// TestRForkDropsMalformedRequests: the receiving daemon drops a
// truncated request, one whose zipf no float64 holds (a finite decode
// of it does not exist, so nothing non-finite reaches the sampler), a
// request padded past maxSubmitBytes and a payload that is not a
// []byte, and counts each drop.
func TestRForkDropsMalformedRequests(t *testing.T) {
	valid, err := json.Marshal(validStmRequest)
	if err != nil {
		t.Fatal(err)
	}
	rforkDrops(t,
		valid[:len(valid)/2],
		[]byte(`{"kind":"stm","keys":4,"alts":3,"ops":6,"zipf":1e999,"seed":5}`),
		// Leading whitespace is valid JSON: only the size cap refuses it.
		append(bytes.Repeat([]byte(" "), maxSubmitBytes), valid...),
		consensus.ClaimDecision{Key: "job/1/1", Won: true},
	)
}

var validStmRequest = submitRequest{Kind: "stm", Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.3, Seed: 5}

// rforkDrops sends each bad payload to a peer's rfork port, then
// forwards a valid stm request, and fails unless the peer admitted the
// valid one alone and counted every bad payload as dropped, in the JSON
// and the Prometheus metrics both. The receiver handles its rfork
// frames in arrival order, so once it has admitted a job, every frame
// before that job's has been seen: if a bad one was admitted, fewer
// drops than bad payloads are counted by then.
func rforkDrops(t *testing.T, bad ...any) {
	t.Helper()
	nodes := testCluster(t, 2)
	origin, peer := nodes[0].state, nodes[1]
	for i, p := range bad {
		if !origin.tcp.Send(transport.Addr{Node: peer.state.node, Port: checkpoint.RForkPort}, p) {
			t.Fatalf("send of bad payload %d failed", i)
		}
	}
	if err := origin.rfork(peer.state.node, validStmRequest); err != nil {
		t.Fatalf("rfork: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for peer.state.rforksIn.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer never admitted the valid request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if in, sub := peer.state.rforksIn.Load(), peer.pool.Stats().JobsSubmitted; in != 1 || sub != 1 {
		t.Fatalf("rforksIn = %d, jobs submitted = %d; want 1 each (the bad payloads dropped)", in, sub)
	}
	if got := getMetrics(t, peer.http.URL).Cluster.RForksDropped; got != int64(len(bad)) {
		t.Fatalf("rforks_dropped = %d, want %d", got, len(bad))
	}
	_, prom := getBody(t, peer.http.URL+"/metrics?format=prom")
	if want := fmt.Sprintf("altrun_rfork_dropped_total %d\n", len(bad)); !strings.Contains(string(prom), want) {
		t.Fatalf("prom metrics lack %q", want)
	}
}
