package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileSampleFloor(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, used float64
	}{
		{1000, 950, 95}, // 50 samples beyond the p95
		{200, 190, 95},  // exactly tailSamples beyond
		{100, 90, 90},   // only 5 beyond the p95: the p90 is the highest with 10
		{15, 8, 50},     // never below the median
		{0, 0, 95},
	} {
		got, used := percentileFloor(seq(tc.n), 95)
		if got != tc.want || used != tc.used {
			t.Errorf("n=%d: got value %v at p%v, want %v at p%v", tc.n, got, used, tc.want, tc.used)
		}
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("nearest-rank median of 1..10 = %v, want 5", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// A failed block's stall is not charged to throughput: ten 1 ms commits
// from each of two clients are 2000 blocks/s with or without a 250 ms
// deadline miss among them.
func TestBlocksPerSWithFailedBlocks(t *testing.T) {
	var recs []rec
	for i := 0; i < 20; i++ {
		recs = append(recs, rec{dur: int64(time.Millisecond), work: int64(400 * time.Microsecond), class: classCommitted})
	}
	figures := func(recs []rec) *sliceResult {
		ph := &phase{recs: recs, z: edge{cpu: 40 * time.Millisecond, alloc: 21000}}
		res := &sliceResult{Figures: map[string]float64{}, Samples: map[string]int64{}}
		ph.endToEnd(2, res)
		return res
	}
	clean := figures(recs)
	mixed := figures(append(recs, rec{dur: int64(250 * time.Millisecond), class: classDeadline}))
	if !near(clean.Figures["blocks_per_s"], 2000) || !near(mixed.Figures["blocks_per_s"], 2000) {
		t.Errorf("blocks_per_s clean %v, with a failed block %v; want 2000 both", clean.Figures["blocks_per_s"], mixed.Figures["blocks_per_s"])
	}
	if mixed.Classes[classCommitted] != 20 || mixed.Classes[classDeadline] != 1 || !near(mixed.Figures["committed_frac"], 20.0/21) {
		t.Errorf("classes %v, committed_frac %v", mixed.Classes, mixed.Figures["committed_frac"])
	}
	if !near(mixed.Figures["block_p50_ms"], 1) || !near(mixed.Figures["block_p99_ms"], 1) || !near(mixed.Figures["overhead_p50_us"], 600) {
		t.Errorf("figures %v: failed blocks must stay out of the percentiles", mixed.Figures)
	}
	if !near(mixed.Figures["cpu_ms_per_block"], 2) || !near(mixed.Figures["bytes_per_block"], 1000) {
		t.Errorf("cpu %v ms per committed block, %v B per attempted block; want 2 and 1000", mixed.Figures["cpu_ms_per_block"], mixed.Figures["bytes_per_block"])
	}
	if mixed.P99Used != 50 {
		t.Errorf("20 samples: block_p99_ms should say it is the p%v, want the median", mixed.P99Used)
	}
	if got := blocksPerS(2, 0, 0); got != 0 {
		t.Errorf("no committed blocks: %v", got)
	}
}

// Slices are combined by the mean of the middle six of eight: one wild
// slice each way is dropped, a change of mix moves the figure smoothly.
func TestTrimmedMeanAndCombine(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); !near(got, 3.5) {
		t.Errorf("trimmed mean of eight = %v, want 3.5", got)
	}
	if got := trimmedMean([]float64{1, 3}); !near(got, 2) {
		t.Errorf("two slices: %v, want their mean", got)
	}
	if trimmedMean(nil) != 0 {
		t.Error("no slices must give 0")
	}
	slice := func(traced bool, bps, leaked float64) *sliceResult {
		s := &sliceResult{Traced: traced, P99Used: 99, Figures: map[string]float64{"blocks_per_s": bps}, Samples: map[string]int64{}}
		s.Classes[classCommitted], s.Classes[classDeadline] = 90, 10
		s.Tries[0], s.Tries[1], s.OpsFailed = 80, 10, 1
		if traced {
			s.Figures["core.worlds_leaked"], s.Figures["serve.spec_high_water"] = leaked, leaked+3
			s.Figures["page.copies_per_block"] = bps / 10
		}
		return s
	}
	res := combine(runConfig{workload: "stm_spec", traced: true},
		[]*sliceResult{slice(false, 1000, 0), slice(true, 800, 1), slice(true, 1000, 2)}, 2)
	if res.Attempted != 182 || res.Failed != 2 || res.Blocks != 200 || res.Crashes != 2 {
		t.Errorf("operations %d, given up %d, blocks %d, crashes %d; want the traced slices' 182, 2 and 200, and 2 crashes that fail no operation",
			res.Attempted, res.Failed, res.Blocks, res.Crashes)
	}
	for name, want := range map[string]float64{
		"trace.overhead_frac":     0.1, // 900 traced against 1000 untraced
		"core.worlds_leaked":      3,   // leaks add up
		"runtime.crashes_per_run": 2,   // slice processes started again
		"serve.spec_high_water":   5,   // high-water marks take the maximum
		"page.copies_per_block":   90,
		"consensus.claim_us":      0, // no slice speaks to it
	} {
		if got := res.Metrics[name]; !near(got.Value, want) || got.Unit != metricUnits[name] {
			t.Errorf("%s = %v %s, want %v %s", name, got.Value, got.Unit, want, metricUnits[name])
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want every per-layer metric (%d)", len(res.Metrics), len(perLayer))
	}
}

// Self time is duration minus the union of the children: alternative
// bodies overlap, and a child may stick out of its parent.
func TestSelfTimeUnion(t *testing.T) {
	parent := span{0, 100}
	for _, tc := range []struct {
		children []span
		want     int64
	}{
		{nil, 100},
		{[]span{{10, 50}, {30, 70}}, 40},            // overlapping alt.body spans: 60 covered, not 80
		{[]span{{30, 70}, {10, 50}, {90, 120}}, 30}, // unsorted, and one clipped at the parent's end
		{[]span{{-20, 10}, {0, 100}}, 0},
		{[]span{{20, 20}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("children %v: self %d, want %d", tc.children, got, tc.want)
		}
	}
}

// Span trees built from a block's stamps: the block's own self time is
// what no child covers, and overlapping bodies are not counted twice.
func TestBlockSpans(t *testing.T) {
	b := &blockRec{direct: true, span: span{1000, 2000}, class: classCommitted, winner: 0}
	b.alts = []altRec{
		{bodyStart: 1100, bodyEnd: 1500, ops: []opSpan{{"mem.first_write", 4, span{1100, 1300}}}},
		{bodyStart: 1200, bodyEnd: 2600}, // a loser that ends after the reply
	}
	b.claim = span{1500, 1520}
	spans := blockSpans(b)
	self := selfTimes(spans)
	byName := map[string]int64{}
	for i, s := range spans {
		byName[s.name] += self[i]
	}
	want := map[string]int64{
		"block":           0,   // setup 1000-1200, bodies 1100-2000 (clipped), select 1500-2000
		"core.setup":      200, // call → last body entered
		"alt.body":        200 + 800,
		"mem.first_write": 200,
		"core.select":     480, // 500 minus the claim
		"claim":           20,
	}
	if !reflect.DeepEqual(byName, want) {
		t.Errorf("self times %v, want %v", byName, want)
	}
}

// Per-block rates come from counter deltas between the edges.
func TestRatesFromCounterDeltas(t *testing.T) {
	var a, z edge
	a.page, z.page = [5]int64{100, 10, 5, 50, 1}, [5]int64{100 + 7680, 10 + 30, 5 + 10, 50 + 7000, 1 + 2}
	a.sel.Resolutions, z.sel.Resolutions = 10, 40
	a.sel.SubscribersVisited, z.sel.SubscribersVisited = 5, 65
	a.msg.Sent, z.msg.Sent = 0, 1500
	a.msg.Accepted, z.msg.Accepted = 0, 600
	z.t = int64(time.Second)
	h := &harness{w: findWorkload("fork_write"), env: &env{}}
	res := &sliceResult{Figures: map[string]float64{}, Samples: map[string]int64{}}
	h.edgeMetrics(&phase{recs: make([]rec, 10), a: a, z: z}, res)
	for name, want := range map[string]float64{
		"page.copies_per_block":           768,
		"page.clones_per_block":           3,
		"page.recycled_frac":              7000.0 / 7690,
		"page.compactions_per_kblock":     200,
		"core.resolutions_per_block":      3,
		"core.subscribers_per_resolution": 2,
		"msg.sent_per_block":              150,
		"msg.accepted_frac":               0.4,
	} {
		if got := res.Figures[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if ratio(5, 0) != 0 {
		t.Error("a rate over zero blocks must be 0, not Inf")
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestInputsDeterministic(t *testing.T) {
	for i := int64(0); i < 50; i++ {
		if a, b := stmSpec(7, i, 4, 0), stmSpec(7, i, 4, 0); a != b {
			t.Fatalf("stm spec %d differs between two builds: %+v vs %+v", i, a, b)
		}
		u1, c1, f1 := raceInput(7, 1, i)
		u2, c2, f2 := raceInput(7, 1, i)
		if u1 != u2 || c1 != c2 || f1 != f2 {
			t.Fatalf("race input %d is not deterministic", i)
		}
		if u1[c1] != raceUnits[0] || (i%7 == 6) != (f1 == c1) {
			t.Fatalf("race input %d: units %v cheapest %d failing %d", i, u1, c1, f1)
		}
	}
	if stmSpec(7, 3, 4, 0).Seed == stmSpec(8, 3, 4, 0).Seed {
		t.Error("stm specs ignore the seed")
	}
	if quiet, abort := stmSpec(7, 3, 4, 0), stmSpec(7, 3, 4, 3); quiet.AbortEvery != 0 || abort.AbortEvery != 3 || quiet.Seed != abort.Seed {
		t.Errorf("the abort stream must differ from the measured one in AbortEvery alone: %+v vs %+v", quiet, abort)
	}
	seen := map[[3]int]bool{}
	for i := int64(0); i < 100; i++ {
		u, _, _ := raceInput(7, 0, i)
		seen[u] = true
	}
	if len(seen) != 6 {
		t.Errorf("race costs take %d of the 6 permutations", len(seen))
	}
	p1, p2, p3 := makeForkPlans(7), makeForkPlans(7), makeForkPlans(8)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("fork plans differ for the same seed")
	}
	if reflect.DeepEqual(p1, p3) {
		t.Error("fork plans ignore the seed")
	}
	for a := range p1[0] {
		pages := map[uint16]bool{}
		for _, pg := range append(p1[0][a].reads[:], p1[0][a].writes[:]...) {
			if pg >= forkPages || pages[pg] {
				t.Fatalf("alternative %d: page %d out of range or chosen twice", a, pg)
			}
			pages[pg] = true
		}
	}
}

// Every way a block can end without committing has its class; none of
// them aborts a run.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		res  serve.JobResult
		want failClass
	}{
		{serve.JobResult{Status: serve.StatusDone}, classCommitted},
		{serve.JobResult{Status: serve.StatusTimedOut, Err: serve.ErrDeadline}, classDeadline},
		{serve.JobResult{Status: serve.StatusFailed, Err: core.ErrAllFailed}, classAllFailed},
		{serve.JobResult{Status: serve.StatusFailed, Err: fmt.Errorf("extract: %w", errors.New("no reply"))}, classExtract},
		{serve.JobResult{Status: serve.StatusFailed, Err: errors.New("init: boom")}, classError},
		{serve.JobResult{Status: serve.StatusCancelled}, classError},
	} {
		if got := classify(tc.res); got != tc.want {
			t.Errorf("%v/%v classified %s, want %s", tc.res.Status, tc.res.Err, classNames[got], classNames[tc.want])
		}
	}
}

// A block that does not commit is sent again with the same inputs; the
// operation is given up after opTries blocks. Every attempt is a block
// of its own in the records.
func TestRunPhaseRetriesUntilCommit(t *testing.T) {
	h := &harness{w: &workload{clients: 1}, env: &env{rt: core.New(core.Config{})}, seq: []int64{0}}
	defer func(d time.Duration) { retryPause = d }(retryPause)
	retryPause = time.Nanosecond
	sent := map[int64]int{}
	ph := h.runPhase(0.05, false, opTries, func(b *blockRec) {
		sent[b.seq]++
		b.alts = make([]altRec, 1)
		b.start = now()
		time.Sleep(100 * time.Microsecond)
		b.end = now()
		// Block 0 commits when sent the third time, block 1 never.
		if (b.seq == 0 && sent[0] < 3) || b.seq == 1 {
			b.class = classDeadline
		}
	})
	if sent[0] != 3 || sent[1] != opTries || sent[2] != 1 {
		t.Errorf("block 0 sent %d times, block 1 %d, block 2 %d; want 3, %d, 1", sent[0], sent[1], sent[2], opTries)
	}
	if ph.tries[0] != int64(len(sent)-2) || ph.tries[2] != 1 || ph.failed != 1 {
		t.Errorf("operations committed at block 1, 2, ...: %v, %d given up; want %d at the first, 1 at the third, 1 given up", ph.tries, ph.failed, len(sent)-2)
	}
	if want := len(sent) + 2 + opTries - 1; len(ph.recs) != want {
		t.Errorf("%d block records, want one per attempt (%d)", len(ph.recs), want)
	}
}
