package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"altrun/internal/obs"
)

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDebugBlocksEndpoint: after one job at sampling rate 1, the
// flight recorder's HTTP surface must show the block — list, single
// timeline with a reconciling decomposition, and a Chrome trace with
// the expected span names.
func TestDebugBlocksEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind:    "sort",
		Input:   []int{9, 4, 7, 1},
		TraceID: "stitch-1",
	})
	if resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("job: %d %+v", resp.StatusCode, v)
	}

	code, body := getBody(t, ts.URL+"/debug/blocks")
	if code != http.StatusOK {
		t.Fatalf("/debug/blocks = %d: %s", code, body)
	}
	var list struct {
		Stats  obs.RecorderStats `json:"stats"`
		Blocks []obs.Timeline    `json:"blocks"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list: %v\n%s", err, body)
	}
	if len(list.Blocks) < 1 {
		t.Fatal("no blocks listed after a sampled job")
	}
	tl := list.Blocks[0]
	if tl.ID != v.ID || tl.Status != "done" || tl.TraceID != "stitch-1" {
		t.Fatalf("listed block = %+v, job %d", tl, v.ID)
	}
	if sum := tl.Setup + tl.Runtime + tl.Selection + tl.Sched; sum != tl.Wall {
		t.Fatalf("decomposition does not reconcile: %+v", tl)
	}

	code, body = getBody(t, fmt.Sprintf("%s/debug/blocks/%d", ts.URL, v.ID))
	if code != http.StatusOK {
		t.Fatalf("/debug/blocks/%d = %d", v.ID, code)
	}
	var single obs.Timeline
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if single.ID != v.ID || single.Spawns == 0 {
		t.Fatalf("single timeline = %+v", single)
	}

	code, body = getBody(t, fmt.Sprintf("%s/debug/blocks/%d/trace", ts.URL, v.ID))
	if code != http.StatusOK {
		t.Fatalf("trace = %d", code)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"setup", "runtime", "selection", "commit"} {
		if !names[want] {
			t.Fatalf("trace missing %q span; have %v", want, names)
		}
	}

	if code, _ := getBody(t, ts.URL+"/debug/blocks/999999"); code != http.StatusNotFound {
		t.Fatalf("unknown block = %d, want 404", code)
	}
}

// TestMetricsPromFormat: ?format=prom renders the Prometheus text
// exposition, including the selection counters and the recorder's
// histograms.
func TestMetricsPromFormat(t *testing.T) {
	ts, _ := testServer(t)
	if resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind: "sort", Input: []int{3, 1, 2},
	}); resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("job: %d %+v", resp.StatusCode, v)
	}
	code, body := getBody(t, ts.URL+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("prom metrics = %d", code)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE altrun_jobs_completed_total counter",
		"altrun_jobs_completed_total 1",
		"altrun_sel_resolutions_total",
		"altrun_sel_eliminations_total",
		"altrun_obs_blocks_sampled_total 1",
		"# TYPE altrun_obs_block_wall_seconds histogram",
		"altrun_obs_setup_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsJSONIncludesObs: the JSON view carries the recorder
// aggregates (and the selection counters it always had).
func TestMetricsJSONIncludesObs(t *testing.T) {
	ts, _ := testServer(t)
	if resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind: "sort", Input: []int{2, 1},
	}); resp.StatusCode != http.StatusOK || v.Status != "done" {
		t.Fatalf("job: %d %+v", resp.StatusCode, v)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m metricsView
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if m.Obs == nil || m.Obs.BlocksSampled != 1 {
		t.Fatalf("obs stats missing from /metrics: %+v", m.Obs)
	}
	if m.Obs.Wall.Count != 1 {
		t.Fatalf("wall histogram empty: %+v", m.Obs.Wall)
	}
}
