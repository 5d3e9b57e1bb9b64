package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current output")

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	return string(<-read), ferr
}

// TestExperimentsGolden pins the default altbench output, E1 through
// E17, byte for byte. Every experiment runs in the deterministic
// simulator, so the output is the same on any machine, at any
// GOMAXPROCS and under -race. A change that means to move a table
// regenerates the file with `go test ./cmd/altbench -run
// ExperimentsGolden -update` and shows the diff.
func TestExperimentsGolden(t *testing.T) {
	out, err := captureStdout(t, func() error { return realMain("all", false) })
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/experiments.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(out), want) {
		return
	}
	got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, e)
		}
	}
}

func TestList(t *testing.T) {
	out, err := captureStdout(t, func() error { return realMain("all", true) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e7", "e14"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunSubset(t *testing.T) {
	out, err := captureStdout(t, func() error { return realMain("e1,e6", false) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E1 —") || !strings.Contains(out, "E6 —") {
		t.Errorf("subset output missing tables:\n%s", out)
	}
	if strings.Contains(out, "E3 —") {
		t.Error("unselected experiment ran")
	}
}

func TestRunUnknown(t *testing.T) {
	_, err := captureStdout(t, func() error { return realMain("e99", false) })
	if err == nil || !strings.Contains(err.Error(), "unknown experiments") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := registry()
	if len(exps) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.name] {
			t.Errorf("duplicate experiment %s", e.name)
		}
		seen[e.name] = true
		if e.desc == "" {
			t.Errorf("experiment %s missing description", e.name)
		}
	}
}

// TestAllExperimentsRun executes every experiment through the CLI path
// (the full paper reproduction in one test).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	out, err := captureStdout(t, func() error { return realMain("all", false) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 17; i++ {
		tag := "E" + itoa(i) + " —"
		if !strings.Contains(out, tag) {
			t.Errorf("output missing %q", tag)
		}
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return "1" + string(rune('0'+n-10))
}

// TestSelbenchQuick exercises the selection-overhead benchmark CLI end
// to end in smoke mode and sanity-checks the report it writes.
func TestSelbenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness in -short mode")
	}
	path := t.TempDir() + "/BENCH_sel.json"
	out, err := captureStdout(t, func() error {
		return runSelbench([]string{"-quick", "-o", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CommitLatency/live=10", "EliminationThroughput/live=100", "flat"} {
		if !strings.Contains(out, want) {
			t.Errorf("selbench output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep selBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Baseline) == 0 || len(rep.Results) == 0 {
		t.Fatalf("report missing baseline or results: %+v", rep)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Errorf("result %s/live=%d has non-positive ns/op", r.Name, r.LiveWorlds)
		}
	}
}
