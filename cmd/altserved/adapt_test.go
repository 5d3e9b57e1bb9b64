package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestAdaptiveControllerThroughAltserved runs skewed sort jobs through a
// handler over an adaptive pool: /metrics must report the controller on
// with one decision per job, and the Prometheus view must carry the
// switch and no budget-resizing series.
func TestAdaptiveControllerThroughAltserved(t *testing.T) {
	ts, _ := testServerAdapt(t, true)
	const jobs = 12
	for i := 0; i < jobs; i++ {
		resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
			Kind:         "sort",
			Input:        []int{9, 4, 7, 1, 8, 2, 6, 3, 5, 0, 11, 10},
			PerCompareNS: 2000,
			Skew:         4,
		})
		if resp.StatusCode != http.StatusOK || v.Status != "done" {
			t.Fatalf("job %d: status %d %+v", i, resp.StatusCode, v)
		}
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m metricsView
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if !m.Policy.Enabled {
		t.Fatalf("policy.enabled = false on an adaptive pool: %+v", m.Policy)
	}
	if m.Policy.Decisions != jobs {
		t.Fatalf("policy.decisions = %d, want %d (one per job)", m.Policy.Decisions, jobs)
	}

	code, body = getBody(t, ts.URL+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("prom metrics = %d", code)
	}
	prom := string(body)
	if !strings.Contains(prom, "\naltrun_policy_enabled 1\n") {
		t.Fatalf("prom output lacks altrun_policy_enabled 1:\n%s", prom)
	}
	if strings.Contains(prom, "altrun_policy_budget_") {
		t.Fatalf("prom output still carries budget-resizing series:\n%s", prom)
	}
}
