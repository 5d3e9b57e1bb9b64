// Command bench is the repo's benchmark of record: six closed-loop
// workloads, eight end-to-end metrics taken with spans off, and a traced
// run per workload for the per-layer numbers. Every layer is measured
// from outside, by timing the benchmark's own calls into public
// functions and reading public counters at the edges of the measured
// interval. See README.md beside this file.
//
//	go run -C bench .                                       every workload, both runs each
//	go run -C bench . -workload fork_write                  one workload, both runs
//	go run -C bench . -repeat 2 -check                      two sets, compared against BENCHMARK.json's bounds
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (the driver's form)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all)")
		seed         = fs.Int64("seed", 1, "input seed: the program under test receives only inputs generated from it")
		seconds      = fs.Float64("seconds", 12, "measured time of a run, cut into slices of 1.5 s that each get a fresh process and set-up")
		traceMode    = fs.Int("trace", -1, "0: one measured run, spans off; 1: one traced run; default: both")
		out          = fs.String("out", "", "write the full report as JSON to this file")
		repeat       = fs.Int("repeat", 1, "number of full sets to run")
		check        = fs.Bool("check", false, "with -repeat 2: fail if an end-to-end pair differs by more than its bound in BENCHMARK.json, a workload's crash count by more than 3, or an operation was given up")
		slice        = fs.Int("slice", -1, "internal: measure only this slice of the run and print it as JSON")
		spawned      = fs.Int64("spawned", 0, "internal: when the parent started this slice's process, in Unix nanoseconds")
		outDir       = fs.String("outdir", "", "where a traced run writes <workload>.trace.json (default bench/out)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{*workloadName}
	if *workloadName == "" && *traceMode < 0 {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*workloadName) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	m := measurer{cfg: runConfig{
		workload: *workloadName, seed: *seed, seconds: *seconds, traced: *traceMode == 1, outDir: *outDir,
	}}
	if *slice >= 0 {
		return m.child(*slice, *spawned)
	}
	fmt.Println(stampLine(root, *seed))
	if *traceMode >= 0 {
		res, err := m.measure()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(res)
		line, err := json.Marshal(res.line())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.correct() {
			return 1
		}
		return 0
	}

	var sets []map[string]*setResult
	for rep := 0; rep < *repeat; rep++ {
		t0 := time.Now()
		set, ok, err := m.runSet(names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("# set %d of %d took %.1f s\n", rep+1, *repeat, time.Since(t0).Seconds())
		if !ok {
			return 1
		}
		sets = append(sets, set)
	}
	if *out != "" {
		if err := writeReport(*out, root, *seed, sets); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if len(sets) >= 2 {
		bounds, err := loadBounds(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if over := compareSets(names, sets[0], sets[1], bounds); over > 0 && *check {
			fmt.Printf("# %d pairs differ by more than their bound\n", over)
			return 1
		}
	}
	return 0
}

// measurer runs one run: every slice in a child process of its own.
type measurer struct{ cfg runConfig }

// child is the body of a slice's process: measure the slice, print it.
// spawned is when the parent started the process.
func (m measurer) child(index int, spawned int64) int {
	specs := plan(m.cfg)
	if index >= len(specs) {
		fmt.Fprintf(os.Stderr, "bench: slice %d of %d\n", index, len(specs))
		return 2
	}
	s, err := runSlice(m.cfg, specs[index], len(specs), spawned)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(s); err == nil {
			fmt.Println(string(line))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

const (
	// crashAttempts is how often a slice is started again after the
	// program under test crashed its process.
	crashAttempts = 3
	// sliceTimeout kills a slice's process that hangs: a slice takes
	// about two seconds.
	sliceTimeout = 45 * time.Second
	// crashBound is by how many crashes two sets of one workload may
	// differ under -check. Crashes are rare events (about one per set of
	// stm_spec at the seed commit, none elsewhere), so the bound is a
	// count, not a share.
	crashBound = 3
)

// measure runs every slice of the run in a process of its own and
// combines them. A slice whose process crashes or hangs is started
// again: at the seed commit a store copy that is shut down in the
// instant it is spawned has its pages released under its handler, which
// panics in one of the runtime's own goroutines (about once in 30 000
// stm_spec blocks), and a benchmark that dies of that in one run of five
// is of no use as a gate. Crashes are counted (runtime.crashes_per_run,
// and compared under -check) and each is reported as a warning. Exit
// code 1 is the child's own verdict and is final.
func (m measurer) measure() (*result, error) {
	specs := plan(m.cfg)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if m.cfg.traced {
		traceArg = "1"
	}
	slices := make([]*sliceResult, 0, len(specs))
	var crashes []string
	for _, spec := range specs {
		var s *sliceResult
		for attempt := 1; s == nil; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), sliceTimeout)
			cmd := exec.CommandContext(ctx, exe,
				"-workload", m.cfg.workload, "-seed", fmt.Sprint(m.cfg.seed), "-seconds", fmt.Sprint(m.cfg.seconds),
				"-trace", traceArg, "-slice", fmt.Sprint(spec.index), "-outdir", m.cfg.outDir,
				"-spawned", fmt.Sprint(time.Now().UnixNano()))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			cancel()
			if err == nil {
				os.Stderr.Write(stderr.Bytes())
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				s = &sliceResult{}
				if err := json.Unmarshal(lines[len(lines)-1], s); err != nil {
					return nil, fmt.Errorf("%s slice %d: last line is not a result: %w", m.cfg.workload, spec.index, err)
				}
				break
			}
			// A crash's stack is long; its first lines say what happened.
			head := strings.SplitN(stderr.String(), "\n", 8)
			fmt.Fprintln(os.Stderr, strings.Join(head[:len(head)-1], "\n"))
			if cmd.ProcessState.ExitCode() == 1 || attempt == crashAttempts {
				return nil, fmt.Errorf("%s slice %d: %w", m.cfg.workload, spec.index, err)
			}
			crashes = append(crashes, fmt.Sprintf("slice %d, attempt %d: the program crashed the process (%v): %s", spec.index, attempt, err, head[0]))
		}
		slices = append(slices, s)
	}
	res := combine(m.cfg, slices, len(crashes))
	res.Warnings = append(res.Warnings, crashes...)
	return res, nil
}

// repoRoot finds the checkout root (the directory with BENCHMARK.json)
// from the two places the command is started from: the root itself, or
// bench/ under `go run -C bench`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "main.go")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", fmt.Errorf("run from the repo root or from bench/: BENCHMARK.json not found")
}

// commit reads HEAD from .git without leaving the checkout; the
// driver's checkout is not a git repository, and then it is "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func stampLine(root string, seed int64) string {
	return fmt.Sprintf("# altrun bench: num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(root), seed)
}

// runLine is the last line of a single run: the driver's contract.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the last line of a run: the driver's contract.
func (r *result) line() runLine {
	return runLine{r.correct(), max(r.Attempted, 1), r.Failed, r.Metrics}
}

// printResult prints every metric by name with its unit and the number
// of samples it rests on.
func printResult(res *result) {
	kind, defs := "end-to-end (spans off)", endToEnd
	if res.Traced {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Printf("# %s %s: %d operations, %d given up after %d blocks each; %d blocks attempted, %d not committed",
		res.Workload, kind, res.Attempted, res.Failed, opTries, res.Blocks, res.Blocks-res.Classes[classCommitted])
	for c := classRejected; c < numClasses; c++ {
		if res.Classes[c] > 0 {
			fmt.Printf(" %s=%d", classNames[c], res.Classes[c])
		}
	}
	for k, n := range res.Tries[1:] {
		if n > 0 {
			fmt.Printf(" committed_at_block_%d=%d", k+2, n)
		}
	}
	fmt.Println()
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || (res.Traced && m.N == 0) {
			continue // a layer this workload does not pass through
		}
		fmt.Printf("%-12s %-34s %14.6g %-6s n=%d\n", res.Workload, d.name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedShares(res.Shares) {
		fmt.Printf("%-12s share.%-28s %14.4f %-6s (self time ÷ block time)\n", res.Workload, name, res.Shares[name], "ratio")
	}
	if res.TraceFile != "" {
		fmt.Printf("# trace written to %s\n", res.TraceFile)
	}
	for _, w := range res.Warnings {
		fmt.Printf("# warning: %s\n", w)
	}
	for _, v := range res.Violations {
		fmt.Printf("# VIOLATION: %s\n", v)
	}
}

// setResult is both runs of one workload.
type setResult struct {
	EndToEnd runLine `json:"end_to_end"`
	PerLayer runLine `json:"per_layer"`
	Crashes  int     `json:"crashes"` // slice processes the program crashed or hung, both runs
}

// runSet runs both runs of every named workload. ok is false when a
// run's outputs were wrong.
func (m measurer) runSet(names []string) (set map[string]*setResult, ok bool, err error) {
	set, ok = map[string]*setResult{}, true
	for _, name := range names {
		sr := &setResult{}
		for traced, dst := range []*runLine{&sr.EndToEnd, &sr.PerLayer} {
			m.cfg.workload, m.cfg.traced = name, traced == 1
			res, err := m.measure()
			if err != nil {
				return nil, false, err
			}
			printResult(res)
			*dst = res.line()
			sr.Crashes += res.Crashes
			ok = ok && res.correct()
		}
		set[name] = sr
	}
	return set, ok, nil
}

func writeReport(path, root string, seed int64, sets []map[string]*setResult) error {
	report := map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"commit": commit(root), "seed": seed, "sets": sets,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadBounds reads the end-to-end bounds the benchmark fixed.
func loadBounds(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compareSets prints, per end-to-end metric and workload, the two
// values and their relative difference, and per workload the two crash
// counts and the operations given up (both runs); it returns how many
// pairs differ by more than their bound.
func compareSets(names []string, a, b map[string]*setResult, bounds map[string]float64) int {
	over := 0
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	sort.Strings(names)
	for _, name := range names {
		for _, d := range endToEnd {
			x, y := a[name].EndToEnd.Metrics[d.name].Value, b[name].EndToEnd.Metrics[d.name].Value
			diff := math.Abs(y-x) / math.Abs(x)
			mark := ""
			if diff > bounds[d.name] {
				over++
				mark = "  OVER"
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, d.name, x, y, 100*diff, 100*bounds[d.name], mark)
		}
		x, y := a[name].Crashes, b[name].Crashes
		mark := ""
		if y-x > crashBound || x-y > crashBound {
			over++
			mark = "  OVER"
		}
		fmt.Printf("%-12s %-18s %14d %14d %9d %7d%s\n", name, "crashes", x, y, y-x, crashBound, mark)
		// An operation given up is a failure of the program at any count.
		gx, gy := a[name].EndToEnd.Failed+a[name].PerLayer.Failed, b[name].EndToEnd.Failed+b[name].PerLayer.Failed
		mark = ""
		if gx != 0 || gy != 0 {
			over++
			mark = "  OVER"
		}
		fmt.Printf("%-12s %-18s %14d %14d %9d %7d%s\n", name, "ops given up", gx, gy, gy-gx, 0, mark)
	}
	return over
}
