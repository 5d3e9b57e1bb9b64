package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	appchoo "altrun/apps/choo"
)

// TestSubmitStmAndWait drives the contended-store workload through the
// HTTP API: the extracted result must name the committed alternative
// and carry the final sink-page image, and the contention must show up
// on /metrics as receiver splits.
func TestSubmitStmAndWait(t *testing.T) {
	ts, _ := testServer(t)
	resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind: "stm",
		Keys: 6, Alts: 4, Ops: 8, ReadFrac: 0.4, Seed: 99,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", resp.StatusCode, v)
	}
	if v.Status != "done" {
		t.Fatalf("job status = %q (error %q), want done", v.Status, v.Error)
	}
	val, ok := v.Value.(map[string]any)
	if !ok {
		t.Fatalf("value = %v (%T)", v.Value, v.Value)
	}
	winner, ok := val["winner"].(float64)
	if !ok || int(winner) != v.WinnerIndex {
		t.Fatalf("store winner %v, block winner %d", val["winner"], v.WinnerIndex)
	}
	if pages, ok := val["pages"].([]any); !ok || len(pages) != 6 {
		t.Fatalf("pages = %v, want 6", val["pages"])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	// Decode the selection and messages sections by their JSON keys:
	// like every other section, they are snake_case.
	var m struct {
		Selection map[string]int64 `json:"selection"`
		Messages  map[string]int64 `json:"messages"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for section, keys := range map[string]map[string]int64{"selection": m.Selection, "messages": m.Messages} {
		for k := range keys {
			if k != strings.ToLower(k) {
				t.Errorf("/metrics %s key %q is not snake_case", section, k)
			}
		}
	}
	if m.Messages["sent"] == 0 || m.Selection["resolutions"] == 0 {
		t.Fatalf("metrics show no sends or resolutions after a contended stm job: %v %v", m.Messages, m.Selection)
	}
	if m.Messages["splits"] == 0 {
		t.Fatalf("metrics show no receiver splits after a contended stm job: %v", m.Messages)
	}
	if m.Messages["splits"] != m.Selection["world_splits"] {
		t.Fatalf("messages.splits = %d, selection.world_splits = %d: a split counted without a fork",
			m.Messages["splits"], m.Selection["world_splits"])
	}
}

// TestSubmitChooExampleMatchesOracle is the end-to-end acceptance path:
// a checked-in example program submitted over HTTP, its committed
// store state and prints matching one of the oracle's sequential
// outcomes.
func TestSubmitChooExampleMatchesOracle(t *testing.T) {
	src, err := os.ReadFile("../../examples/choo/account.choo")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t)
	resp, v := postJSON(t, ts.URL+"/jobs?wait=1", submitRequest{
		Kind:    "choo",
		Program: string(src),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %+v", resp.StatusCode, v)
	}
	if v.Status != "done" {
		t.Fatalf("job status = %q (error %q), want done", v.Status, v.Error)
	}
	val, ok := v.Value.(map[string]any)
	if !ok {
		t.Fatalf("value = %v (%T)", v.Value, v.Value)
	}
	vars := map[string]int64{}
	for name, x := range val["vars"].(map[string]any) {
		vars[name] = int64(x.(float64))
	}
	var prints []string
	if raw, isList := val["prints"].([]any); isList {
		for _, p := range raw {
			prints = append(prints, p.(string))
		}
	}

	prog, err := appchoo.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := appchoo.Oracle(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Matches(vars, prints) {
			if v.Winner == "" {
				t.Fatalf("done choo job reports no winner: %+v", v)
			}
			return
		}
	}
	t.Fatalf("served result vars=%v prints=%v matches none of %d sequential outcomes %+v",
		vars, prints, len(outs), outs)
}

func TestSubmitChooBadProgram(t *testing.T) {
	ts, _ := testServer(t)
	for _, req := range []submitRequest{
		{Kind: "choo"},                              // no program
		{Kind: "choo", Program: "x = 1;"},           // lex error
		{Kind: "choo", Program: "choo(a, b);"},      // undeclared procs
		{Kind: "choo", Program: "proc p { x := 1;"}, // unclosed body
	} {
		resp, v := postJSON(t, ts.URL+"/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("program %q: status = %d, body %+v", req.Program, resp.StatusCode, v)
		}
	}
}
