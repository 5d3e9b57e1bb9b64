package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// childEnv marks a slice's process. The command does not know it; it
// lets the test binary serve as the child process of its own tests, so
// they measure every slice in a process of its own, exactly as the
// command does, crash and retry included. The value "corrupt" makes the
// child's first verification expect a wrong word.
const childEnv = "ALTRUN_BENCH_CHILD"

func TestMain(m *testing.M) {
	if v := os.Getenv(childEnv); v != "" {
		testCorrupt.Store(v == "corrupt")
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// BENCHMARK.json and the benchmark's own tables name the same workloads
// and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
		if workloads[i].clients > 2 {
			t.Errorf("workload %q uses %d client goroutines, more than nproc (2)", w.Name, workloads[i].clients)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, m, d)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] || endToEndNames[m.Name] {
			t.Errorf("per-layer metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// Each workload for a fraction of a second: every metric of
// BENCHMARK.json comes out once, finite and with its unit, the trace
// file parses, and the correctness checks ran and passed.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	t.Setenv(childEnv, "1")
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := runConfig{workload: w.name, seed: 3, seconds: 0.3, traced: traced, outDir: t.TempDir()}
				res, err := measurer{cfg: cfg}.measure()
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("traced=%v: violations: %v", traced, res.Violations)
				}
				if res.Attempted < 1 {
					t.Fatalf("traced=%v: no block attempted", traced)
				}
				// stm blocks lose replies now and then at the seed commit:
				// that is counted, not fatal, and the block is sent again.
				if lost := res.Blocks - res.Classes[classCommitted]; 2*lost >= res.Blocks {
					t.Errorf("traced=%v: %d of %d blocks did not commit", traced, lost, res.Blocks)
				}
				if res.Failed != 0 {
					t.Errorf("traced=%v: %d of %d operations did not commit in %d blocks each", traced, res.Failed, res.Attempted, opTries)
				}
				want := map[string]string{}
				if traced {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, name)
						continue
					}
					if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v %q, want a finite value in %q", traced, name, m.Value, m.Unit, unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
					}
				}
				if traced {
					checkTraceFile(t, res.TraceFile)
					checkLayers(t, w.name, res)
				}
			}
		})
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	blocks := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "block" {
			blocks++
		} else if ev.Args["parent"] == nil || ev.Args["block"] == nil {
			t.Fatalf("span %q lacks its parent or block id", ev.Name)
		}
	}
	if blocks == 0 {
		t.Fatal("trace file holds no block span")
	}
}

// checkLayers holds the traced run to what each workload was chosen for:
// a layer does its work in one workload and next to none in another.
func checkLayers(t *testing.T, name string, res *result) {
	t.Helper()
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	n := func(metric string) int64 { return res.Metrics[metric].N }
	switch name {
	case "fork_write":
		if v("page.copies_per_block") < 500 {
			t.Errorf("fork_write copies %.0f pages per block, want >= 500", v("page.copies_per_block"))
		}
	case "commit_null":
		if v("page.copies_per_block") > 5 {
			t.Errorf("commit_null copies %.1f pages per block, want <= 5", v("page.copies_per_block"))
		}
	case "stm_spec":
		if v("msg.splits_per_block") < 5 {
			t.Errorf("stm_spec splits %.1f times per block, want >= 5", v("msg.splits_per_block"))
		}
	case "stm_seq":
		if s := v("msg.splits_per_block"); s <= 0 || s > 3 {
			t.Errorf("stm_seq splits %.1f times per block, want (0, 3]", s)
		}
	}
	if !isSTM(name) && v("msg.splits_per_block") != 0 {
		t.Errorf("%s splits receivers (%v per block)", name, v("msg.splits_per_block"))
	}
	if (name == "quorum3") != (v("consensus.rounds_per_block") > 0) {
		t.Errorf("%s: consensus.rounds_per_block = %v", name, v("consensus.rounds_per_block"))
	}
	direct := name == "commit_null" || name == "fork_write"
	if direct != (n("serve.submit_us") == 0) || direct != (n("core.reconcile_err_frac") > 0) {
		t.Errorf("%s: serve timings on %d samples, reconciliation on %d", name, n("serve.submit_us"), n("core.reconcile_err_frac"))
	}
	if isSTM(name) != (n("stm.abort_committed_frac") > 0) {
		t.Errorf("%s: the abort stream ran %d blocks", name, n("stm.abort_committed_frac"))
	}
	if n("trace.overhead_frac") == 0 {
		t.Errorf("%s: trace.overhead_frac not reported", name)
	}
}

// An injected oracle mismatch makes the command exit non-zero: a wrong
// answer is not a performance number.
func TestInjectedMismatchFailsCommand(t *testing.T) {
	run := func(name string) int {
		return realMain([]string{"--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", "0", "--outdir", t.TempDir()})
	}
	t.Setenv(childEnv, "1")
	if code := run("commit_null"); code != 0 {
		t.Errorf("a clean run exits with code %d", code)
	}
	t.Setenv(childEnv, "corrupt")
	for _, name := range []string{"commit_null", "race_cpu", "stm_seq"} {
		if code := run(name); code == 0 {
			t.Errorf("%s: exit code 0 with an injected mismatch", name)
		}
	}
}
