package main

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"altrun/internal/core"
)

// selbench runs the real (not simulated) selection-path benchmarks:
// commit latency and sibling-elimination throughput of an alternative
// block while an increasing population of unrelated live worlds is
// registered. On the indexed-propagation design both must be flat in
// the live-world count (commit work is O(affected set)); before it,
// every resolution event scanned every live world, so both grew
// linearly.
//
// Usage: altbench selbench [-quick] [-o BENCH_sel.json]

// selBaselineCommit identifies the pre-index code the baseline numbers
// in this file were measured at.
const selBaselineCommit = "845ae50 (O(live-set) propagate, single-mutex registry)"

// selBenchResult is one benchmark measurement in the JSON output.
type selBenchResult struct {
	Name        string  `json:"name"`
	LiveWorlds  int     `json:"live_worlds"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	// EliminationsPerSec is set for the elimination-throughput rows.
	EliminationsPerSec float64 `json:"eliminations_per_sec,omitempty"`
}

// selContendedResult is one row of the 64-way commit-contention run.
type selContendedResult struct {
	LiveWorlds   int     `json:"live_worlds"`
	P50Ns        float64 `json:"p50_ns"`
	P99Ns        float64 `json:"p99_ns"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
}

// selBenchReport is the BENCH_sel.json document.
type selBenchReport struct {
	reportMeta
	BaselineCommit string           `json:"baseline_commit"`
	Baseline       []selBenchResult `json:"baseline"`
	Results        []selBenchResult `json:"results"`
	// Contended is the 64-way commit-contention run, one row per
	// bystander population.
	Contended []selContendedResult `json:"contended_64way,omitempty"`
	// MutexProfileReadPath is "clean" when a full mutex profile of the
	// contended run contains no registry/pidmap/proc/router
	// read-path frame — the zero-mutex-acquisition check.
	MutexProfileReadPath string `json:"mutex_profile_read_path,omitempty"`
	// SubscribersPerResolution is the mean affected-set size observed
	// across the run — the quantity commit cost now scales with.
	SubscribersPerResolution float64 `json:"subscribers_per_resolution"`
}

// selBaseline holds the pre-index numbers (same benchmark bodies, run
// at selBaselineCommit on the same class of machine) so the report
// always carries a before/after comparison.
func selBaseline() []selBenchResult {
	return []selBenchResult{
		{Name: "CommitLatency", LiveWorlds: 10, NsPerOp: 213591},
		{Name: "CommitLatency", LiveWorlds: 100, NsPerOp: 211270},
		{Name: "CommitLatency", LiveWorlds: 1000, NsPerOp: 380903},
		{Name: "CommitLatency", LiveWorlds: 10000, NsPerOp: 1687854},
		{Name: "EliminationThroughput", LiveWorlds: 10, NsPerOp: 16456594, EliminationsPerSec: 3828},
		{Name: "EliminationThroughput", LiveWorlds: 100, NsPerOp: 19041811, EliminationsPerSec: 3309},
		{Name: "EliminationThroughput", LiveWorlds: 1000, NsPerOp: 17133681, EliminationsPerSec: 3677},
		{Name: "EliminationThroughput", LiveWorlds: 10000, NsPerOp: 61804080, EliminationsPerSec: 1019},
	}
}

// populateBystanders registers `live` root worlds that take no part in
// any block: the registry population an unrelated commit must not pay
// for.
func populateBystanders(rt *core.Runtime, live int) error {
	for i := 0; i < live; i++ {
		if _, err := rt.NewRootWorld("bystander", 4096); err != nil {
			return err
		}
	}
	return nil
}

// benchCommitLatency measures one full two-alternative block (spawn,
// race, commit, synchronous sibling elimination) with `live` unrelated
// worlds registered.
func benchCommitLatency(live int) (testing.BenchmarkResult, error) {
	rt := core.New(core.Config{})
	if err := populateBystanders(rt, live); err != nil {
		return testing.BenchmarkResult{}, err
	}
	root, err := rt.NewRootWorld("root", 64*1024)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := root.RunAlt(core.Options{SyncElimination: true},
				core.Alt{Name: "fast", Body: func(w *core.World) error {
					return w.WriteUint64(0, uint64(i))
				}},
				core.Alt{Name: "slow", Body: func(w *core.World) error {
					w.Sleep(time.Second)
					return nil
				}},
			)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// selElimWidth is the block width of the elimination benchmark: one
// winner, selElimWidth-1 eliminated losers per block. Wide enough that
// the elimination cascade dominates goroutine-scheduling noise.
const selElimWidth = 64

// benchEliminationThroughput measures a wide block where one
// alternative wins immediately and the rest are eliminated, reporting
// ns/block; eliminations/sec = (width-1)/(ns/block).
func benchEliminationThroughput(live int) (testing.BenchmarkResult, error) {
	const width = selElimWidth
	rt := core.New(core.Config{})
	if err := populateBystanders(rt, live); err != nil {
		return testing.BenchmarkResult{}, err
	}
	root, err := rt.NewRootWorld("root", 64*1024)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	alts := make([]core.Alt, width)
	alts[0] = core.Alt{Name: "winner", Body: func(w *core.World) error { return nil }}
	for i := 1; i < width; i++ {
		alts[i] = core.Alt{Name: "loser", Body: func(w *core.World) error {
			w.Sleep(time.Second)
			return nil
		}}
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := root.RunAlt(core.Options{SyncElimination: true}, alts...); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// selContendWidth is the number of concurrently-committing goroutines
// in the contention benchmark — the acceptance point of the lock-free
// refactor ("p50 commit latency under 64-way contention").
const selContendWidth = 64

// benchContendedCommit runs selContendWidth goroutines, each owning a
// root world and committing two-alternative blocks back to back, with
// `live` unrelated bystander worlds registered. Commit latency is
// measured from the winner's body completing to the block resolving
// (claim, commit, synchronous sibling elimination) — not whole-block
// wall time, which on a small machine is dominated by scheduling the
// 64-way goroutine fan-out rather than the selection path under test.
// blocks/s is aggregate over the whole run.
func benchContendedCommit(live, blocksPerWorker int) (selContendedResult, error) {
	rt := core.New(core.Config{})
	if err := populateBystanders(rt, live); err != nil {
		return selContendedResult{}, err
	}
	roots := make([]*core.World, selContendWidth)
	for i := range roots {
		r, err := rt.NewRootWorld("contender", 64*1024)
		if err != nil {
			return selContendedResult{}, err
		}
		roots[i] = r
	}
	lat := make([][]time.Duration, selContendWidth)
	errs := make([]error, selContendWidth)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range roots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			root := roots[i]
			samples := make([]time.Duration, 0, blocksPerWorker)
			for n := 0; n < blocksPerWorker; n++ {
				var won time.Time
				_, err := root.RunAlt(core.Options{SyncElimination: true},
					core.Alt{Name: "fast", Body: func(w *core.World) error {
						if err := w.WriteUint64(0, uint64(n)); err != nil {
							return err
						}
						won = time.Now()
						return nil
					}},
					core.Alt{Name: "slow", Body: func(w *core.World) error {
						w.Sleep(time.Second)
						return nil
					}},
				)
				if err != nil {
					errs[i] = err
					return
				}
				samples = append(samples, time.Since(won))
			}
			lat[i] = samples
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return selContendedResult{}, err
		}
	}
	var all []time.Duration
	for _, s := range lat {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx].Nanoseconds())
	}
	return selContendedResult{
		LiveWorlds:   live,
		P50Ns:        pct(0.50),
		P99Ns:        pct(0.99),
		BlocksPerSec: float64(len(all)) / elapsed.Seconds(),
	}, nil
}

// readPathSites are the lock-free read-path functions that must never
// be a mutex-contention *site* (the function that held the contended
// lock): registry lookup (which
// also resolves every send's receiver), subscriber snapshot and process
// status take zero mutexes by construction. Writer-side functions
// (pidmap.Map Set/Update/Delete, addWorld, proc Register) legitimately
// hold mutexes and are not in this list.
var readPathSites = []string{
	").Get", // pidmap.(*Map[...]).Get — scoped by the pidmap package check below
	"core.(*registry).world",
	"core.(*registry).appendSubscribers",
	"proc.(*Table).Status",
	"proc.(*Table).AppendChildren",
	"proc.(*Table).lookup",
}

// isReadPathSite reports whether name is one of the functions that by
// contract acquire no mutex.
func isReadPathSite(name string) bool {
	for _, rp := range readPathSites {
		if !strings.Contains(name, rp) {
			continue
		}
		if rp == ").Get" && !strings.Contains(name, "internal/pidmap.") {
			continue // only the PID map's Get is in scope
		}
		return true
	}
	return false
}

// assertLockFreeReadPath runs a contended workload with full mutex
// profiling and fails if any contended-mutex event was held by a
// read-path function. The contention site is the innermost
// non-sync/non-runtime frame of each profile record.
func assertLockFreeReadPath() (string, error) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)
	if _, err := benchContendedCommit(100, 50); err != nil {
		return "", err
	}
	var records []runtime.BlockProfileRecord
	n, _ := runtime.MutexProfile(nil)
	for {
		records = make([]runtime.BlockProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MutexProfile(records)
		if ok {
			records = records[:n]
			break
		}
	}
	for _, rec := range records {
		for _, pc := range rec.Stack() {
			f := runtime.FuncForPC(pc)
			if f == nil {
				continue
			}
			name := f.Name()
			if strings.HasPrefix(name, "sync.") || strings.HasPrefix(name, "runtime.") {
				continue
			}
			// name is the contention site (lock holder).
			if isReadPathSite(name) {
				return "", fmt.Errorf("mutex contention held by read-path function %s (%d events)", name, rec.Count)
			}
			break
		}
	}
	return "clean", nil
}

func toSelResult(name string, live int, r testing.BenchmarkResult) selBenchResult {
	return selBenchResult{
		Name:        name,
		LiveWorlds:  live,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runSelbench is the `altbench selbench` entry point.
func runSelbench(args []string) error {
	fs := flag.NewFlagSet("selbench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_sel.json", "output JSON path ('-' for stdout only)")
	quick := fs.Bool("quick", false, "CI smoke mode: small world counts, one iteration")
	if err := fs.Parse(args); err != nil {
		return err
	}

	counts := []int{10, 100, 1000, 10000}
	contendedCounts := []int{10, 10000}
	blocksPerWorker := 200
	if *quick {
		counts = []int{10, 100}
		contendedCounts = []int{10}
		blocksPerWorker = 30
	}

	var results []selBenchResult

	fmt.Println("selbench — real selection-path benchmarks (commit latency, elimination throughput)")
	fmt.Printf("%-32s %14s %12s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "B/op", "elim/s")
	for _, live := range counts {
		r, err := benchCommitLatency(live)
		if err != nil {
			return fmt.Errorf("commit-latency live=%d: %w", live, err)
		}
		res := toSelResult("CommitLatency", live, r)
		results = append(results, res)
		fmt.Printf("%-32s %14.1f %12d %12d %14s\n",
			fmt.Sprintf("CommitLatency/live=%d", live), res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, "-")
	}
	for _, live := range counts {
		r, err := benchEliminationThroughput(live)
		if err != nil {
			return fmt.Errorf("elimination live=%d: %w", live, err)
		}
		res := toSelResult("EliminationThroughput", live, r)
		res.EliminationsPerSec = (selElimWidth - 1) / (res.NsPerOp / 1e9)
		results = append(results, res)
		fmt.Printf("%-32s %14.1f %12d %12d %14.0f\n",
			fmt.Sprintf("EliminationThroughput/live=%d", live), res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.EliminationsPerSec)
	}

	var contended []selContendedResult
	fmt.Printf("\n%d-way contended commit\n", selContendWidth)
	fmt.Printf("%12s %14s %14s %14s\n", "live", "p50 µs", "p99 µs", "blocks/s")
	for _, live := range contendedCounts {
		r, err := benchContendedCommit(live, blocksPerWorker)
		if err != nil {
			return fmt.Errorf("contended live=%d: %w", live, err)
		}
		contended = append(contended, r)
		fmt.Printf("%12d %14.1f %14.1f %14.0f\n", r.LiveWorlds, r.P50Ns/1e3, r.P99Ns/1e3, r.BlocksPerSec)
	}

	// The zero-mutex-acquisition check on the lock-free read path.
	mutexVerdict, err := assertLockFreeReadPath()
	if err != nil {
		return fmt.Errorf("lock-free read-path mutex assertion: %w", err)
	}
	fmt.Printf("mutex-profile read-path check: %s\n", mutexVerdict)

	// Selection counters from a dedicated run: the affected-set
	// size per resolution is the quantity commit cost scales with.
	subsPerRes, err := measureSelCounters()
	if err != nil {
		return err
	}
	fmt.Printf("\nsubscribers visited per resolution: %.2f (affected set; live-set scan would be ≫)\n", subsPerRes)

	// Flat-commit check: the headline claim is O(affected-set)
	// selection, so flag a regression right in the tool.
	first, last := results[0].NsPerOp, results[len(counts)-1].NsPerOp
	if first > 0 {
		ratio := last / first
		verdict := fmt.Sprintf("flat (O(affected-set) selection, %dx world growth)", counts[len(counts)-1]/counts[0])
		if ratio > 2 {
			verdict = "NOT FLAT — commit cost scales with the live set"
		}
		fmt.Printf("commit latency %d/%d worlds ratio: %.2fx — %s\n", counts[len(counts)-1], counts[0], ratio, verdict)
	}

	return writeReport(*out, selBenchReport{
		reportMeta:               newReportMeta(),
		BaselineCommit:           selBaselineCommit,
		Baseline:                 selBaseline(),
		Results:                  results,
		Contended:                contended,
		MutexProfileReadPath:     mutexVerdict,
		SubscribersPerResolution: subsPerRes,
	})
}

// measureSelCounters runs a fixed workload (100 blocks of width 4 among
// 1000 bystanders) and reads the runtime's selection counters.
func measureSelCounters() (subsPerResolution float64, err error) {
	rt := core.New(core.Config{})
	if err := populateBystanders(rt, 1000); err != nil {
		return 0, err
	}
	root, err := rt.NewRootWorld("root", 64*1024)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 100; i++ {
		alts := make([]core.Alt, 4)
		for j := range alts {
			alts[j] = core.Alt{Name: "alt", Body: func(w *core.World) error { return nil }}
		}
		if _, err := root.RunAlt(core.Options{SyncElimination: true}, alts...); err != nil {
			return 0, err
		}
	}
	sel := rt.SelStats()
	if sel.Resolutions == 0 {
		return 0, nil
	}
	return float64(sel.SubscribersVisited) / float64(sel.Resolutions), nil
}
