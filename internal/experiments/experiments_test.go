package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* claims the paper makes for each
// experiment (who wins, by roughly what factor, where crossovers fall);
// the exact values land in EXPERIMENTS.md.

func TestE1ShapesMatchPaper(t *testing.T) {
	res := E1()
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if math.Abs(row.PI-row.PaperPI) > 0.01 {
			t.Errorf("row %d: PI %.3f vs paper %.2f", i+1, row.PI, row.PaperPI)
		}
	}
	if !strings.Contains(res.Format(), "7.00") {
		t.Error("formatted table must include row 2's PI of 7.00")
	}
}

func TestE2MeasuredMatchesAnalytic(t *testing.T) {
	res, err := E2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		rel := math.Abs(row.MeasuredPI-row.AnalyticPI) / row.AnalyticPI
		if rel > 0.02 {
			t.Errorf("row %d: measured %.3f vs analytic %.3f (%.1f%% off)",
				i+1, row.MeasuredPI, row.AnalyticPI, rel*100)
		}
	}
	_ = res.Format()
}

func TestE3ForkCalibration(t *testing.T) {
	res, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	var b2At320, hpAt320 time.Duration
	for _, row := range res.Rows {
		if row.SizeKB == 320 {
			switch {
			case strings.Contains(row.Profile, "3B2"):
				b2At320 = row.Fork
			case strings.Contains(row.Profile, "HP"):
				hpAt320 = row.Fork
			}
		}
	}
	// Paper: 31ms and 12ms at 320KB. Allow 5%.
	if math.Abs(b2At320.Seconds()-0.031) > 0.0016 {
		t.Errorf("3B2 fork(320KB) = %v, want ≈31ms", b2At320)
	}
	if math.Abs(hpAt320.Seconds()-0.012) > 0.0006 {
		t.Errorf("HP fork(320KB) = %v, want ≈12ms", hpAt320)
	}
	// Fork grows with space size.
	var prev time.Duration
	for _, row := range res.Rows {
		if strings.Contains(row.Profile, "3B2") {
			if row.Fork < prev {
				t.Error("fork latency must grow with space size")
			}
			prev = row.Fork
		}
	}
	_ = res.Format()
}

func TestE4CopyRates(t *testing.T) {
	res, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		var want float64
		switch {
		case strings.Contains(row.Profile, "3B2"):
			want = 326
		case strings.Contains(row.Profile, "HP"):
			want = 1034
		}
		if row.RatePerSec < want*0.9 || row.RatePerSec > want*1.1 {
			t.Errorf("%s at %.0f%%: rate %.0f pages/s, want ≈%.0f",
				row.Profile, row.Fraction*100, row.RatePerSec, want)
		}
	}
	// Copy time scales with fraction written (§4.4's independent var).
	var prev time.Duration
	for _, row := range res.Rows {
		if strings.Contains(row.Profile, "3B2") {
			if row.CopyTime < prev {
				t.Error("copy time must grow with fraction written")
			}
			prev = row.CopyTime
		}
	}
	_ = res.Format()
}

func TestE5RForkShape(t *testing.T) {
	res, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.SizeKB != 70 {
			continue
		}
		// Paper: checkpoint ≈ 1s (dominant), total ≈ 1.3s.
		if row.Checkpoint < 800*time.Millisecond || row.Checkpoint > 1100*time.Millisecond {
			t.Errorf("checkpoint(70KB) = %v, want ≈1s", row.Checkpoint)
		}
		if row.Total < 1100*time.Millisecond || row.Total > 1500*time.Millisecond {
			t.Errorf("total(70KB) = %v, want ≈1.3s", row.Total)
		}
		if row.Checkpoint < row.Transfer || row.Checkpoint < row.Restore {
			t.Error("checkpoint must be the dominant cost (§4.4)")
		}
	}
	_ = res.Format()
}

func TestE6Transcript(t *testing.T) {
	res, err := E6()
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "method3" {
		t.Errorf("winner = %q, want method3 (fastest with passing guard)", res.Winner)
	}
	if res.Spawns != 4 || res.Commits != 1 || res.GuardFails != 1 {
		t.Errorf("transcript = %+v", res)
	}
	if !res.Transparent {
		t.Error("parent state must equal the winner's result")
	}
	if res.Eliminations == 0 {
		t.Error("losing siblings must be eliminated")
	}
	_ = res.Format()
}

func TestE7RecoveryShape(t *testing.T) {
	res, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E7Row{}
	for _, row := range res.Rows {
		byName[row.Scenario] = row
	}
	slow := byName["slow-primary(sorted-input)"]
	if slow.Speedup < 5 {
		t.Errorf("slow-primary speedup = %.2f, want >= 5x", slow.Speedup)
	}
	faulty := byName["faulty-primary(random-input)"]
	if faulty.Speedup <= 1 {
		t.Errorf("faulty-primary speedup = %.2f, want > 1x", faulty.Speedup)
	}
	healthy := byName["healthy-primary(random-input)"]
	if healthy.Speedup < 0.5 || healthy.Speedup > 2.5 {
		t.Errorf("healthy-primary speedup = %.2f, want near 1x", healthy.Speedup)
	}
	_ = res.Format()
}

func TestE8PrologShape(t *testing.T) {
	res, err := E8()
	if err != nil {
		t.Fatal(err)
	}
	prevSpeedup := 0.0
	for _, row := range res.Rows {
		if row.Speedup <= 1 {
			t.Errorf("depth %d: OR-parallel must win (speedup %.2f)", row.SkewDepth, row.Speedup)
		}
		if row.Speedup < prevSpeedup*0.8 {
			t.Errorf("speedup should grow (or hold) with skew: %v", res.Rows)
		}
		prevSpeedup = row.Speedup
		// Wasted work is bounded by cancellation: parallel steps must
		// be far below the sequential burn.
		if row.ParSteps > row.SeqSteps {
			t.Errorf("depth %d: parallel steps %d exceed sequential %d",
				row.SkewDepth, row.ParSteps, row.SeqSteps)
		}
	}
	_ = res.Format()
}

func TestE9EliminationShape(t *testing.T) {
	res, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Async != time.Second {
			t.Errorf("N=%d: async elapsed %v, want exactly 1s", row.N, row.Async)
		}
		wantSync := time.Second + time.Duration(row.N-1)*50*time.Millisecond
		if row.Sync != wantSync {
			t.Errorf("N=%d: sync elapsed %v, want %v", row.N, row.Sync, wantSync)
		}
	}
	_ = res.Format()
}

func TestE10ConsensusShape(t *testing.T) {
	res, err := E10()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		wantCommit := row.Crashes < (row.Nodes/2 + 1)
		// A majority of crashes blocks the commit; fewer crashes don't.
		if row.Crashes > row.Nodes-row.Nodes/2-1 {
			wantCommit = false
		}
		if row.Committed != wantCommit {
			t.Errorf("nodes=%d crashes=%d: committed=%v, want %v",
				row.Nodes, row.Crashes, row.Committed, wantCommit)
		}
		// A committed claim takes one ballot: one round trip on the HP
		// network, none when the only voter is local. A claim without a
		// quorum runs its MaxAttempts = 3 ballots, each ending at the
		// 200 ms reply timeout, and backs off (100 ms, then 150 ms for
		// PID 100) only between them: giving up costs no final backoff.
		wantLatency, wantBallots := 20*time.Millisecond, 1
		switch {
		case !row.Committed:
			wantLatency, wantBallots = 850*time.Millisecond, 3
		case row.Nodes == 1:
			wantLatency = 0
		}
		if row.Latency != wantLatency || row.Ballots != wantBallots {
			t.Errorf("nodes=%d crashes=%d: %v after %d ballots, want %v after %d",
				row.Nodes, row.Crashes, row.Latency, row.Ballots, wantLatency, wantBallots)
		}
	}
	_ = res.Format()
}

func TestE11WasteShape(t *testing.T) {
	res, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		switch {
		case strings.HasPrefix(row.Workload, "constant"):
			// Identical alternatives: pure waste, factor ≈ N, no
			// latency gain.
			if math.Abs(row.WasteRatio-float64(row.N)) > 0.1 {
				t.Errorf("constant N=%d: factor %.2f, want ≈%d", row.N, row.WasteRatio, row.N)
			}
			if row.Elapsed != row.MeanSeqCPU {
				t.Errorf("constant N=%d: no latency gain expected", row.N)
			}
		case strings.HasPrefix(row.Workload, "exponential"):
			// Memoryless: racing is nearly CPU-free (factor ≈ 1,
			// independent of N — far below the constant case's N).
			if row.WasteRatio > 1.8 {
				t.Errorf("exponential N=%d: factor %.2f, want ≈1", row.N, row.WasteRatio)
			}
			if row.Elapsed >= row.MeanSeqCPU {
				t.Errorf("exponential N=%d: latency %v must beat mean %v", row.N, row.Elapsed, row.MeanSeqCPU)
			}
		case strings.HasPrefix(row.Workload, "uniform"):
			// In between: some waste, real latency gain.
			if row.WasteRatio <= 1 || row.WasteRatio >= float64(row.N) {
				t.Errorf("uniform N=%d: factor %.2f, want in (1, N)", row.N, row.WasteRatio)
			}
			if row.Elapsed >= row.MeanSeqCPU {
				t.Errorf("uniform N=%d: latency %v must beat mean %v", row.N, row.Elapsed, row.MeanSeqCPU)
			}
		}
	}
	_ = res.Format()
}

func TestE12SchemesShape(t *testing.T) {
	res, err := E12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		switch {
		case strings.HasPrefix(row.Workload, "constant"):
			if row.CWins {
				t.Error("racing must NOT win on constant workloads (table row 3)")
			}
		default:
			if !row.CWins {
				t.Errorf("racing must win on %s: A=%v B=%v C=%v",
					row.Workload, row.SchemeA, row.SchemeB, row.SchemeC)
			}
			if row.SchemeC < row.Oracle {
				t.Errorf("%s: C (%v) cannot beat the oracle (%v)", row.Workload, row.SchemeC, row.Oracle)
			}
		}
	}
	_ = res.Format()
}

func TestE13WorldsShape(t *testing.T) {
	res, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCounter != 1 {
		t.Errorf("final counter = %d, want 1 (exactly the winner's increment)", res.FinalCounter)
	}
	if res.LiveCopies != 1 {
		t.Errorf("surviving copies = %d, want 1", res.LiveCopies)
	}
	if res.Splits < res.Senders-1 {
		t.Errorf("splits = %d, want >= %d", res.Splits, res.Senders-1)
	}
	if res.Splits != res.WorldSplits {
		t.Errorf("split decisions = %d, world splits = %d: a split counted without a fork", res.Splits, res.WorldSplits)
	}
	_ = res.Format()
}

func TestE14CrossoverShape(t *testing.T) {
	res, err := E14()
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticCrossover != 10*time.Second {
		t.Fatalf("analytic crossover = %v, want 10s", res.AnalyticCrossover)
	}
	for _, row := range res.Rows {
		if math.Abs(row.MeasuredPI-row.AnalyticPI)/row.AnalyticPI > 0.02 {
			t.Errorf("overhead %v: measured %.3f vs analytic %.3f",
				row.Overhead, row.MeasuredPI, row.AnalyticPI)
		}
		wantWin := row.Overhead < res.AnalyticCrossover
		if row.Overhead == res.AnalyticCrossover {
			continue // break-even boundary
		}
		if row.RacingWins != wantWin {
			t.Errorf("overhead %v: racingWins=%v, want %v", row.Overhead, row.RacingWins, wantWin)
		}
	}
	_ = res.Format()
}

func TestE15SpawnModeShape(t *testing.T) {
	res, err := E15()
	if err != nil {
		t.Fatal(err)
	}
	prevPenalty := 1e18
	for _, row := range res.Rows {
		if row.FullCopy < row.COW {
			t.Errorf("frac %.2f: full copy (%v) cannot beat COW (%v)",
				row.FractionWritten, row.FullCopy, row.COW)
		}
		// The full-copy penalty shrinks as the alternative writes more
		// (at 100%% written, COW copies everything anyway).
		if row.Penalty > prevPenalty*1.01 {
			t.Errorf("penalty must shrink with fraction written: %+v", res.Rows)
		}
		prevPenalty = row.Penalty
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Penalty < 3 {
		t.Errorf("at 1%% written the full-copy penalty should be large, got %.1fx", first.Penalty)
	}
	// Even at 100% written a floor remains: full copy pays for every
	// sibling up front, COW only for pages the winner actually writes.
	if last.Penalty > 2 {
		t.Errorf("at 100%% written the penalty should approach ~N=2, got %.1fx", last.Penalty)
	}
	_ = res.Format()
}

func TestE16GuardPlacementShape(t *testing.T) {
	res, err := E16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.RecheckDelta != row.GuardCost {
			t.Errorf("guard %v: re-check adds %v, want exactly one extra evaluation",
				row.GuardCost, row.RecheckDelta)
		}
	}
	// Pre-spawn screening: skipping n closed alternatives saves their
	// fork setup (n × 10ms) from the critical path.
	saved := res.ChildSideClosed - res.PreCheckClosed
	want := time.Duration(res.ClosedAlts) * 10 * time.Millisecond
	if saved != want {
		t.Errorf("pre-check saves %v, want %v", saved, want)
	}
	_ = res.Format()
}

func TestE17VirtualConcurrencyShape(t *testing.T) {
	res, err := E17()
	if err != nil {
		t.Fatal(err)
	}
	byCPUs := map[int]E17Row{}
	for _, row := range res.Rows {
		byCPUs[row.CPUs] = row
	}
	// 1 CPU: pure virtual concurrency. The fastest alternative shares
	// the processor 3 ways until it completes at 30s → PI 0.67: racing
	// loses on a uniprocessor even with zero overhead.
	if got := byCPUs[1]; got.Elapsed != 30*time.Second || got.RacingWins {
		t.Errorf("1 CPU: %+v, want 30s and losing", got)
	}
	// Unlimited: the §4.3 ideal, PI = 2.
	if got := byCPUs[0]; got.Elapsed != 10*time.Second || !got.RacingWins {
		t.Errorf("unlimited CPUs: %+v, want 10s and winning", got)
	}
	// PI grows monotonically with processors.
	if !(byCPUs[1].MeasuredPI < byCPUs[2].MeasuredPI &&
		byCPUs[2].MeasuredPI < byCPUs[3].MeasuredPI &&
		byCPUs[3].MeasuredPI <= byCPUs[0].MeasuredPI) {
		t.Errorf("PI must grow with processors: %+v", res.Rows)
	}
	_ = res.Format()
}
