package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"altrun/internal/core"
	"altrun/internal/obs"
	"altrun/internal/serve"
)

// obsbench measures the flight recorder's cost: the same closed-loop
// servebench workload (servebenchJob below) is run with the recorder
// off and with it on at the default 1/64 sampling rate, interleaved
// best-of-N so machine noise cancels. The report proves the two claims the obs subsystem
// makes: throughput regresses < 5%, and every sampled block's
// setup/runtime/selection/sched spans sum exactly to its wall time.
//
// Usage: altbench obsbench [-quick] [-o BENCH_obs.json] [-trace-out t.json]

// servebenchMaxDegree caps per-job speculation width in the benchmark.
const servebenchMaxDegree = 3

// servebenchJob builds the synthetic block: three alternatives of
// distinct costs, all correct, so the fastest admitted one commits.
// Every seventh job fault-injects the fast alternative, forcing the
// pool onto its lazy-spawn path.
func servebenchJob(seq int) serve.Job {
	work := func(d time.Duration, fail bool) func(w *core.World) error {
		return func(w *core.World) error {
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) {
				if w.Cancelled() {
					return errors.New("cancelled")
				}
				time.Sleep(200 * time.Microsecond)
			}
			if fail {
				return errors.New("injected fault")
			}
			return w.WriteUint64(0, uint64(seq))
		}
	}
	faulty := seq%7 == 0
	return serve.Job{
		Kind: "servebench",
		Name: fmt.Sprintf("synthetic-%d", seq),
		Alts: []core.Alt{
			{Name: "fast", Body: work(time.Millisecond, faulty)},
			{Name: "medium", Body: work(2*time.Millisecond, false)},
			{Name: "slow", Body: work(4*time.Millisecond, false)},
		},
		SpaceSize: 4096,
		Deadline:  30 * time.Second,
	}
}

// obsRunResult is one configuration's best observed run.
type obsRunResult struct {
	Jobs       int     `json:"jobs"`
	Throughput float64 `json:"committed_blocks_per_sec"`
	MeanMS     float64 `json:"mean_ms"`
}

// obsBenchReport is the BENCH_obs.json document.
type obsBenchReport struct {
	reportMeta
	Concurrency   int          `json:"concurrency"`
	SampleRate    int          `json:"sample_rate"`
	Reps          int          `json:"reps"`
	Baseline      obsRunResult `json:"baseline"`
	Recorded      obsRunResult `json:"recorded"`
	RegressionPct float64      `json:"regression_pct"`
	Within5Pct    bool         `json:"within_5pct"`

	// Recorder-side evidence from the recorded runs.
	BlocksStarted    int64   `json:"blocks_started"`
	BlocksSampled    int64   `json:"blocks_sampled"`
	TimelinesChecked int     `json:"timelines_checked"`
	AllReconciled    bool    `json:"all_reconciled"`
	PIMeasuredMean   float64 `json:"pi_measured_mean"`
	PIPredictedMean  float64 `json:"pi_predicted_mean"`

	// Calibration: the PI prediction folds the measured overhead EWMA
	// into its denominator; the raw (overhead-blind) prediction is kept
	// alongside. Calibrated means the folded prediction sits at least
	// as close to the measured PI as the raw one, block by block.
	PIGapFoldedMean float64 `json:"pi_gap_folded_mean"`
	PIGapRawMean    float64 `json:"pi_gap_raw_mean"`
	PIGapBlocks     int64   `json:"pi_gap_blocks"`
	Calibrated      bool    `json:"calibrated"`
}

// runObsLoop drives one closed-loop run of the servebench workload
// against a pool with the given recorder (nil = baseline).
func runObsLoop(clients, jobsPerClient int, rec *obs.Recorder) (obsRunResult, error) {
	pool, err := serve.NewPool(serve.Config{
		Workers:    clients,
		SpecTokens: 2 * clients,
		MaxDegree:  servebenchMaxDegree,
		QueueDepth: 2 * clients,
		Recorder:   rec,
	})
	if err != nil {
		return obsRunResult{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Close(ctx)
	}()

	var (
		mu       sync.Mutex
		done     int
		sumMS    float64
		firstErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			for j := 0; j < jobsPerClient; j++ {
				tk, err := pool.Submit(servebenchJob(client*jobsPerClient + j))
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
				mu.Lock()
				done++
				sumMS += float64(res.Elapsed.Nanoseconds()) / 1e6
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return obsRunResult{}, firstErr
	}
	return obsRunResult{
		Jobs:       done,
		Throughput: float64(done) / elapsed.Seconds(),
		MeanMS:     sumMS / float64(done),
	}, nil
}

// checkReconciliation asserts the decomposition invariant on every
// retained timeline: Setup+Runtime+Selection+Sched == Wall exactly.
func checkReconciliation(rec *obs.Recorder) (checked int, ok bool, firstBad *obs.Timeline) {
	for _, tl := range rec.Recent() {
		checked++
		if tl.Setup+tl.Runtime+tl.Selection+tl.Sched != tl.Wall {
			return checked, false, tl
		}
	}
	return checked, checked > 0, nil
}

// runObsbench is the `altbench obsbench` entry point.
func runObsbench(args []string) error {
	fs := flag.NewFlagSet("obsbench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_obs.json", "output JSON path ('-' for stdout only)")
	quick := fs.Bool("quick", false, "CI smoke mode: fewer jobs and reps")
	traceOut := fs.String("trace-out", "", "write one sampled block's Chrome trace JSON here")
	rate := fs.Int("rate", obs.DefaultSampleRate, "recorder sampling rate (1 in N blocks)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	clients, jobsPerClient, reps := 16, 40, 3
	if *quick {
		clients, jobsPerClient, reps = 8, 8, 2
	}

	fmt.Printf("obsbench — servebench workload, recorder off vs on (rate 1/%d), best of %d\n", *rate, reps)
	var (
		base, recd           obsRunResult
		started, samp        int64
		piMeas, piPred       float64
		gapFolded, gapRaw    float64
		gapBlocks, gapWeight int64
		checked              int
		reconciled           = true
		traceDumped          bool
	)
	for r := 0; r < reps; r++ {
		// Interleave A/B within each rep so drift hits both equally.
		b, err := runObsLoop(clients, jobsPerClient, nil)
		if err != nil {
			return fmt.Errorf("baseline rep %d: %w", r, err)
		}
		if b.Throughput > base.Throughput {
			base = b
		}
		rec := obs.NewRecorder(obs.Config{SampleRate: *rate})
		w, err := runObsLoop(clients, jobsPerClient, rec)
		if err != nil {
			return fmt.Errorf("recorded rep %d: %w", r, err)
		}
		if w.Throughput > recd.Throughput {
			recd = w
		}
		st := rec.Stats()
		started += st.BlocksStarted
		samp += st.BlocksSampled
		piMeas, piPred = st.PIMeasuredMean, st.PIPredictedMean
		if st.PIGapBlocks > 0 {
			gapFolded += st.PIGapFoldedMean * float64(st.PIGapBlocks)
			gapRaw += st.PIGapRawMean * float64(st.PIGapBlocks)
			gapWeight += st.PIGapBlocks
			gapBlocks += st.PIGapBlocks
		}
		n, ok, bad := checkReconciliation(rec)
		checked += n
		if !ok {
			reconciled = false
			if bad != nil {
				fmt.Printf("  rep %d: timeline %d does not reconcile: %+v\n", r, bad.ID, bad)
			}
		}
		if *traceOut != "" && !traceDumped {
			if recent := rec.Recent(); len(recent) > 0 {
				raw, terr := recent[0].ChromeTrace()
				if terr == nil && os.WriteFile(*traceOut, raw, 0o644) == nil {
					fmt.Printf("  wrote Chrome trace of block %d to %s\n", recent[0].ID, *traceOut)
					traceDumped = true
				}
			}
		}
		fmt.Printf("  rep %d: baseline %.1f blocks/s, recorded %.1f blocks/s (%d/%d sampled)\n",
			r, b.Throughput, w.Throughput, st.BlocksSampled, st.BlocksStarted)
	}

	regression := 100 * (base.Throughput - recd.Throughput) / base.Throughput
	within := regression < 5
	fmt.Printf("\nbaseline  %10.1f blocks/s (mean %.2f ms)\n", base.Throughput, base.MeanMS)
	fmt.Printf("recorded  %10.1f blocks/s (mean %.2f ms)\n", recd.Throughput, recd.MeanMS)
	fmt.Printf("regression %.2f%% (budget 5%%) — %s\n", regression, map[bool]string{true: "PASS", false: "FAIL"}[within])
	fmt.Printf("reconciliation: %d timelines checked, all exact: %v\n", checked, reconciled)

	// Calibration assertion: folding the measured overhead EWMA into the
	// predicted PI's denominator must not move the prediction further
	// from the measured PI than the raw (overhead-blind) one.
	if gapWeight > 0 {
		gapFolded /= float64(gapWeight)
		gapRaw /= float64(gapWeight)
	}
	calibrated := gapWeight == 0 || gapFolded <= gapRaw
	fmt.Printf("calibration: |pred−meas| PI gap folded %.3f vs raw %.3f over %d blocks — %s\n",
		gapFolded, gapRaw, gapBlocks, map[bool]string{true: "PASS", false: "FAIL"}[calibrated])

	if err := writeReport(*out, obsBenchReport{
		reportMeta:       newReportMeta(),
		Concurrency:      clients,
		SampleRate:       *rate,
		Reps:             reps,
		Baseline:         base,
		Recorded:         recd,
		RegressionPct:    regression,
		Within5Pct:       within,
		BlocksStarted:    started,
		BlocksSampled:    samp,
		TimelinesChecked: checked,
		AllReconciled:    reconciled,
		PIMeasuredMean:   piMeas,
		PIPredictedMean:  piPred,
		PIGapFoldedMean:  gapFolded,
		PIGapRawMean:     gapRaw,
		PIGapBlocks:      gapBlocks,
		Calibrated:       calibrated,
	}); err != nil {
		return err
	}
	if !within {
		return fmt.Errorf("recorder overhead %.2f%% exceeds the 5%% budget", regression)
	}
	if !reconciled {
		return fmt.Errorf("decomposition failed to reconcile on a sampled timeline")
	}
	if !calibrated {
		return fmt.Errorf("calibration regressed: folded PI gap %.3f > raw gap %.3f", gapFolded, gapRaw)
	}
	return nil
}
