package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"time"

	"altrun/internal/core"
	"altrun/internal/obs"
	"altrun/internal/serve"
	"altrun/internal/stats"
)

// adaptbench A/Bs the static speculation policy against the adaptive
// controller (serve/policy.go) on two workloads:
//
//   - mixed: half the jobs have one dominant alternative — a cheap
//     always-correct primary racing two 3×-as-expensive fallbacks, the
//     paper's PI < 1 regime where speculation burns CPU for nothing —
//     and half have genuinely uncertain winners: three equal-cost
//     alternatives of which exactly one (rotating per job) passes, so
//     racing them beats sequential fall-through. The static pool
//     speculates full-width on both; the controller should learn to run
//     the dominant kind sequentially and keep racing the uncertain one.
//     Target: ≥20% better throughput or mean latency.
//   - uniform: the servebench workload (one clearly fastest alternative,
//     occasional faults), where the static policy is already close to
//     optimal. Target: adaptive within 5% of static.
//
// Usage: altbench adaptbench [-quick] [-o BENCH_adapt.json]

// adaptDominantIters is the dominant kind's primary cost in hash-loop
// iterations (~0.5 ms of one core); the fallbacks burn 3× as much.
const adaptDominantIters = 400_000

// adaptDominantJob is the PI < 1 kind: "lean" always succeeds at a
// third of the cost of either fallback, so racing all three only steals
// CPU from the winner. Bodies burn a fixed iteration count — not a
// wall-clock deadline — so CPU sharing among speculative siblings shows
// up as latency, exactly the §4.2 contention the controller should
// learn to avoid.
func adaptDominantJob(seq int) serve.Job {
	burn := func(iters int) func(w *core.World) error {
		return func(w *core.World) error {
			acc := uint64(seq)*2654435761 + 1
			for i := 0; i < iters; i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
				if i&8191 == 0 {
					if w.Cancelled() {
						return errors.New("cancelled")
					}
					// Yield so CPU cost maps to completion order even on
					// GOMAXPROCS=1: without it a body finishes within one
					// scheduler slice and whichever sibling ran first wins.
					runtime.Gosched()
				}
			}
			return w.WriteUint64(0, acc|1)
		}
	}
	return serve.Job{
		Kind: "adapt-dominant",
		Name: fmt.Sprintf("dominant-%d", seq),
		Alts: []core.Alt{
			{Name: "lean", Body: burn(adaptDominantIters)},
			{Name: "mid", Body: burn(3 * adaptDominantIters)},
			{Name: "heavy", Body: burn(3 * adaptDominantIters)},
		},
		SpaceSize: 4096,
		Deadline:  30 * time.Second,
	}
}

// adaptUncertainJob is the PI > 1 kind: three equal-latency paths of
// which exactly one — rotating with the job sequence, so no path
// dominates historically — succeeds; the others discover failure only
// after doing the same amount of (sleep-modelled) work. Sequentially
// that is two failed waves on average before the hit; raced, the
// winner commits in one wave.
func adaptUncertainJob(seq int) serve.Job {
	winner := seq % 3
	path := func(i int) core.Alt {
		hit := i == winner
		return core.Alt{
			Name: fmt.Sprintf("path-%d", i),
			Body: func(w *core.World) error {
				end := time.Now().Add(2 * time.Millisecond)
				for time.Now().Before(end) {
					if w.Cancelled() {
						return errors.New("cancelled")
					}
					time.Sleep(100 * time.Microsecond)
				}
				if !hit {
					return errors.New("wrong path")
				}
				return w.WriteUint64(0, uint64(seq))
			},
		}
	}
	return serve.Job{
		Kind:      "adapt-uncertain",
		Name:      fmt.Sprintf("uncertain-%d", seq),
		Alts:      []core.Alt{path(0), path(1), path(2)},
		SpaceSize: 4096,
		Deadline:  30 * time.Second,
	}
}

// adaptMixedJob interleaves the two kinds 50/50.
func adaptMixedJob(seq int) serve.Job {
	if seq%2 == 0 {
		return adaptDominantJob(seq)
	}
	return adaptUncertainJob(seq / 2)
}

// adaptRunResult is one configuration's measurement on one workload.
type adaptRunResult struct {
	Jobs       int     `json:"jobs"`
	Throughput float64 `json:"committed_blocks_per_sec"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
}

// adaptABResult is one workload's static-vs-adaptive comparison.
type adaptABResult struct {
	Static   adaptRunResult `json:"static"`
	Adaptive adaptRunResult `json:"adaptive"`
	// Improvements are adaptive vs static, positive = adaptive better.
	ThroughputGainPct float64 `json:"throughput_gain_pct"`
	MeanLatGainPct    float64 `json:"mean_latency_gain_pct"`
}

// adaptBenchReport is the BENCH_adapt.json document.
type adaptBenchReport struct {
	reportMeta
	Quick     bool          `json:"quick"`
	Mixed     adaptABResult `json:"mixed"`
	Uniform   adaptABResult `json:"uniform"`
	MixedGoal bool          `json:"mixed_goal_met"`   // ≥20% on throughput or mean latency
	UniformOK bool          `json:"uniform_within_5"` // adaptive ≥ static − 5%

	// Controller evidence from the adaptive mixed run.
	Policy              serve.PolicyStats  `json:"policy"`
	DominantKind        serve.KindSnapshot `json:"dominant_kind"`
	UncertainKind       serve.KindSnapshot `json:"uncertain_kind"`
	SequentialEngaged   bool               `json:"sequential_engaged"`   // dominant kind saw seq decisions
	SpeculationRetained bool               `json:"speculation_retained"` // uncertain kind kept speculating
}

// runAdaptLoop drives one closed-loop run: clients × jobs, with an
// untimed warmup so the adaptive history reaches steady state before
// measurement (the static arm warms up identically for fairness).
// kinds names the job kinds whose KindSnapshots the caller wants back.
func runAdaptLoop(clients, warmup, jobsPerClient int, adaptive bool,
	jobFor func(seq int) serve.Job, kinds []string) (adaptRunResult, serve.PolicyStats, map[string]serve.KindSnapshot, error) {

	fail := func(err error) (adaptRunResult, serve.PolicyStats, map[string]serve.KindSnapshot, error) {
		return adaptRunResult{}, serve.PolicyStats{}, nil, err
	}
	pool, err := serve.NewPool(serve.Config{
		Workers:    clients,
		SpecTokens: 2 * clients,
		MaxDegree:  servebenchMaxDegree,
		QueueDepth: 2 * clients,
		Recorder:   obs.NewRecorder(obs.Config{}),
		Adapt:      adaptive,
	})
	if err != nil {
		return fail(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Close(ctx)
	}()

	var (
		mu        sync.Mutex
		latencies stats.Sample
		firstErr  error
	)
	phase := func(offset, perClient int, record bool) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				defer cancel()
				for j := 0; j < perClient; j++ {
					seq := offset + client*perClient + j
					tk, err := pool.Submit(jobFor(seq))
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("client %d submit: %w", client, err)
						}
						mu.Unlock()
						return
					}
					res, err := tk.Wait(ctx)
					if err != nil || res.Status != serve.StatusDone {
						mu.Lock()
						if firstErr == nil {
							if err == nil {
								err = fmt.Errorf("status %v: %w", res.Status, res.Err)
							}
							firstErr = fmt.Errorf("client %d job %d: %w", client, j, err)
						}
						mu.Unlock()
						return
					}
					if record {
						mu.Lock()
						latencies.Add(float64(res.Elapsed.Nanoseconds()) / 1e6)
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
	}

	phase(0, warmup, false)
	if firstErr != nil {
		return fail(firstErr)
	}
	start := time.Now()
	phase(clients*warmup, jobsPerClient, true)
	elapsed := time.Since(start)
	if firstErr != nil {
		return fail(firstErr)
	}

	p50, err := latencies.Percentile(50)
	if err != nil {
		return fail(err)
	}
	p99, err := latencies.Percentile(99)
	if err != nil {
		return fail(err)
	}
	snaps := make(map[string]serve.KindSnapshot, len(kinds))
	for _, k := range kinds {
		snaps[k] = pool.History().Kind(k)
	}
	return adaptRunResult{
		Jobs:       latencies.N(),
		Throughput: float64(latencies.N()) / elapsed.Seconds(),
		MeanMS:     latencies.Mean(),
		P50MS:      p50,
		P99MS:      p99,
	}, pool.PolicyStats(), snaps, nil
}

// gainPct returns how much better adaptive is than static, in percent:
// positive = adaptive better. higherBetter selects the direction.
func gainPct(static, adaptive float64, higherBetter bool) float64 {
	if static == 0 {
		return 0
	}
	if higherBetter {
		return 100 * (adaptive - static) / static
	}
	return 100 * (static - adaptive) / static
}

func adaptAB(static, adaptive adaptRunResult) adaptABResult {
	return adaptABResult{
		Static:            static,
		Adaptive:          adaptive,
		ThroughputGainPct: gainPct(static.Throughput, adaptive.Throughput, true),
		MeanLatGainPct:    gainPct(static.MeanMS, adaptive.MeanMS, false),
	}
}

// runAdaptbench is the `altbench adaptbench` entry point.
func runAdaptbench(args []string) error {
	fs := flag.NewFlagSet("adaptbench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_adapt.json", "output JSON path ('-' for stdout only)")
	quick := fs.Bool("quick", false, "CI smoke mode: fewer jobs, relaxed (no-regression) thresholds")
	if err := fs.Parse(args); err != nil {
		return err
	}

	clients, warmup, jobsPerClient := 8, 12, 40
	if *quick {
		clients, warmup, jobsPerClient = 4, 10, 16
	}
	mixedKinds := []string{"adapt-dominant", "adapt-uncertain"}

	fmt.Printf("adaptbench — static vs adaptive speculation, %d clients × %d jobs (+%d warmup)\n",
		clients, jobsPerClient, warmup)

	// Mixed workload: dominant (PI < 1) and uncertain (PI > 1) kinds.
	mixedStatic, _, _, err := runAdaptLoop(clients, warmup, jobsPerClient, false, adaptMixedJob, nil)
	if err != nil {
		return fmt.Errorf("mixed static: %w", err)
	}
	mixedAdaptive, policy, kinds, err := runAdaptLoop(clients, warmup, jobsPerClient, true, adaptMixedJob, mixedKinds)
	if err != nil {
		return fmt.Errorf("mixed adaptive: %w", err)
	}
	mixed := adaptAB(mixedStatic, mixedAdaptive)

	// Uniform workload: the servebench job, where static is near-optimal.
	uniStatic, _, _, err := runAdaptLoop(clients, warmup, jobsPerClient, false, servebenchJob, nil)
	if err != nil {
		return fmt.Errorf("uniform static: %w", err)
	}
	uniAdaptive, _, _, err := runAdaptLoop(clients, warmup, jobsPerClient, true, servebenchJob, nil)
	if err != nil {
		return fmt.Errorf("uniform adaptive: %w", err)
	}
	uniform := adaptAB(uniStatic, uniAdaptive)

	dominant := kinds["adapt-dominant"]
	uncertain := kinds["adapt-uncertain"]
	mixedGoal := mixed.ThroughputGainPct >= 20 || mixed.MeanLatGainPct >= 20
	uniformOK := uniform.ThroughputGainPct >= -5 && uniform.MeanLatGainPct >= -5
	seqEngaged := dominant.SeqDecisions > 0
	specRetained := uncertain.SpecDecisions > 0

	fmt.Printf("\nmixed    static   %8.1f blocks/s  mean %6.2f ms  p99 %6.2f ms\n",
		mixedStatic.Throughput, mixedStatic.MeanMS, mixedStatic.P99MS)
	fmt.Printf("mixed    adaptive %8.1f blocks/s  mean %6.2f ms  p99 %6.2f ms  (+%.1f%% tput, +%.1f%% mean lat)\n",
		mixedAdaptive.Throughput, mixedAdaptive.MeanMS, mixedAdaptive.P99MS,
		mixed.ThroughputGainPct, mixed.MeanLatGainPct)
	fmt.Printf("uniform  static   %8.1f blocks/s  mean %6.2f ms\n", uniStatic.Throughput, uniStatic.MeanMS)
	fmt.Printf("uniform  adaptive %8.1f blocks/s  mean %6.2f ms  (%+.1f%% tput, %+.1f%% mean lat)\n",
		uniAdaptive.Throughput, uniAdaptive.MeanMS, uniform.ThroughputGainPct, uniform.MeanLatGainPct)
	fmt.Printf("decisions: dominant %d seq / %d spec / %d explore; uncertain %d seq / %d spec / %d explore; mean degree %.2f\n",
		dominant.SeqDecisions, dominant.SpecDecisions, dominant.ExploreDecisions,
		uncertain.SeqDecisions, uncertain.SpecDecisions, uncertain.ExploreDecisions, policy.MeanDegree)
	fmt.Printf("mixed ≥20%% goal: %v; uniform within 5%%: %v; sequential engaged on dominant: %v\n",
		mixedGoal, uniformOK, seqEngaged)

	if err := writeReport(*out, adaptBenchReport{
		reportMeta:          newReportMeta(),
		Quick:               *quick,
		Mixed:               mixed,
		Uniform:             uniform,
		MixedGoal:           mixedGoal,
		UniformOK:           uniformOK,
		Policy:              policy,
		DominantKind:        dominant,
		UncertainKind:       uncertain,
		SequentialEngaged:   seqEngaged,
		SpeculationRetained: specRetained,
	}); err != nil {
		return err
	}

	if !seqEngaged {
		return errors.New("adaptive controller never chose sequential execution for the dominant kind")
	}
	if !specRetained {
		return errors.New("adaptive controller stopped speculating on the uncertain kind")
	}
	if *quick {
		// CI smoke: adaptive must be no worse than static − 5% on both
		// workloads; the ≥20% mixed target needs the full run's sample
		// sizes to be stable.
		if mixed.ThroughputGainPct < -5 && mixed.MeanLatGainPct < -5 {
			return fmt.Errorf("adaptive regressed on the mixed workload: %.1f%% tput, %.1f%% mean lat",
				mixed.ThroughputGainPct, mixed.MeanLatGainPct)
		}
	} else if !mixedGoal {
		return fmt.Errorf("mixed-workload gain below 20%%: %.1f%% tput, %.1f%% mean lat",
			mixed.ThroughputGainPct, mixed.MeanLatGainPct)
	}
	if !uniformOK {
		return fmt.Errorf("adaptive regressed >5%% on the uniform workload: %+.1f%% tput, %+.1f%% mean lat",
			uniform.ThroughputGainPct, uniform.MeanLatGainPct)
	}
	return nil
}
