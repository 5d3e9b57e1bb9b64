package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/obs"
	"altrun/internal/serve"
)

func testServer(t *testing.T) (*httptest.Server, *serve.Pool) {
	t.Helper()
	return testServerAdapt(t, false)
}

// testServerAdapt is testServer with the adaptive controller switched
// on or off.
func testServerAdapt(t *testing.T, adapt bool) (*httptest.Server, *serve.Pool) {
	t.Helper()
	// Rate-1 recorder: every job is sampled, so the /debug/blocks and
	// /metrics obs assertions are deterministic.
	rec := obs.NewRecorder(obs.Config{SampleRate: 1})
	pool, err := serve.NewPool(serve.Config{
		Workers:         2,
		SpecTokens:      4,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Runtime:         core.New(core.Config{}),
		Recorder:        rec,
		Adapt:           adapt,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(pool, nil, rec))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := pool.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
	})
	return ts, pool
}

func postJSON(t *testing.T, url string, body any) (*http.Response, jobView) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, v
}

func TestSubmitSortAndWait(t *testing.T) {
	ts, _ := testServer(t)
	resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind:  "sort",
		Input: []int{5, 3, 9, 1, 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", resp.StatusCode, v)
	}
	if v.Status != "done" {
		t.Fatalf("job status = %q (error %q), want done", v.Status, v.Error)
	}
	got, ok := v.Value.([]any)
	if !ok || len(got) != 5 {
		t.Fatalf("value = %v", v.Value)
	}
	want := []float64{1, 3, 4, 5, 9} // JSON numbers decode as float64
	for i, x := range got {
		if x.(float64) != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, x, want[i])
		}
	}
}

func TestSubmitPrologAndPoll(t *testing.T) {
	ts, _ := testServer(t)
	resp, v := postJSON(t, ts.URL+"/jobs", submitRequest{
		Kind:    "prolog",
		Program: "likes(alice, go). likes(bob, go). likes(bob, c).",
		Query:   "likes(X, c)",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %+v", resp.StatusCode, v)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID))
		if err != nil {
			t.Fatal(err)
		}
		var cur jobView
		if err := json.NewDecoder(r.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if cur.Status == "done" {
			sol, ok := cur.Value.(map[string]any)
			if !ok || sol["X"] != "bob" {
				t.Fatalf("solution = %v", cur.Value)
			}
			break
		}
		if cur.Status != "queued" && cur.Status != "running" {
			t.Fatalf("job status = %q (error %q)", cur.Status, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitBadRequests(t *testing.T) {
	ts, pool := testServer(t)
	for _, tc := range []struct {
		req  submitRequest
		want string // in the error, when set
	}{
		{req: submitRequest{Kind: "unknown"}},
		{req: submitRequest{Kind: "sort"}},                    // no input
		{req: submitRequest{Kind: "prolog"}},                  // no query
		{req: submitRequest{Kind: "prolog", Query: "likes("}}, // parse error
		// stm counts over the spec caps are refused before any block
		// is built from them.
		{submitRequest{Kind: "stm", Alts: 1_000_000_000}, "alts"},
		{submitRequest{Kind: "stm", Ops: 1 << 30}, "ops"},
		{submitRequest{Kind: "stm", Keys: 1 << 40}, "keys"},
		{submitRequest{Kind: "stm", Alts: -1}, "alts"},
	} {
		resp, v := postJSON(t, ts.URL+"/jobs", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status = %d, body %+v", tc.req, resp.StatusCode, v)
		}
		if !strings.Contains(v.Error, tc.want) {
			t.Fatalf("%+v: error %q does not name %q", tc.req, v.Error, tc.want)
		}
	}
	if got := pool.Stats().JobsSubmitted; got != 0 {
		t.Fatalf("jobs submitted = %d, want 0", got)
	}
}

func TestCancelEndpointFreesJob(t *testing.T) {
	ts, pool := testServer(t)
	// A job the daemon cannot finish quickly: large array with per-
	// compare cost, tight enough that cancel lands while it runs.
	input := make([]int, 2000)
	for i := range input {
		input[i] = len(input) - i
	}
	resp, v := postJSON(t, ts.URL+"/jobs", submitRequest{
		Kind:         "sort",
		Input:        input,
		PerCompareNS: int64(50 * time.Microsecond),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	tk, err := pool.Ticket(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serve.StatusCancelled {
		t.Fatalf("status after DELETE = %v, want cancelled", res.Status)
	}
	// The abandoned job's whole speculative subtree must be freed.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Runtime().LiveWorlds() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d live worlds after cancel", pool.Runtime().LiveWorlds())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	if resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind:  "sort",
		Input: []int{3, 1, 2},
	}); resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("warmup job: %d %+v", resp.StatusCode, v)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Pool.JobsCompleted < 1 {
		t.Fatalf("metrics JobsCompleted = %d, want ≥ 1", m.Pool.JobsCompleted)
	}
	if m.Pool.SpecTokens != 4 || m.Pool.Workers != 2 {
		t.Fatalf("metrics config echo wrong: %+v", m.Pool)
	}
	if m.LiveWorlds != 0 {
		t.Fatalf("LiveWorlds = %d after quiescence", m.LiveWorlds)
	}
}

func TestUnknownJobAndForget(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/jobs/424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	_, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{Kind: "sort", Input: []int{2, 1}})
	if v.Status != "done" {
		t.Fatalf("job = %+v", v)
	}
	r, err := http.Get(fmt.Sprintf("%s/jobs/%d?forget=1", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	r, err = http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("forgotten job status = %d, want 404", r.StatusCode)
	}
}
