package stm

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/serve"
	istm "altrun/internal/stm"
)

func runSpec(t *testing.T, pool *serve.Pool, spec istm.TxnSpec) serve.JobResult {
	t.Helper()
	tk, err := pool.Submit(JobFromSpec(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return res
}

// TestJobThroughPool runs an STM block through the service layer and
// checks the extracted result against the oracle, then verifies the
// store's world tree was cleaned up (Cleanup hook) — live worlds return
// to zero once the job is terminal.
func TestJobThroughPool(t *testing.T) {
	rt := core.New(core.Config{})
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 8, Runtime: rt})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Drain(context.Background())

	spec := istm.TxnSpec{TxnID: 1, Keys: 6, Alts: 4, Ops: 8, ReadFrac: 0.4, Seed: 17}
	res := runSpec(t, pool, spec)
	if res.Status != serve.StatusDone {
		t.Fatalf("status %v (err %v), want done", res.Status, res.Err)
	}
	out, ok := res.Value.(Result)
	if !ok {
		t.Fatalf("value %T, want stm.Result", res.Value)
	}
	if out.Winner != res.WinnerIndex {
		t.Fatalf("store winner %d, block winner %d", out.Winner, res.WinnerIndex)
	}
	if len(out.Pages) != spec.Keys {
		t.Fatalf("%d pages, want %d", len(out.Pages), spec.Keys)
	}

	// The job's store tree must be gone: only cleanup can retire it
	// (the root world is shut down by the pool, the store by Cleanup).
	deadline := time.Now().Add(5 * time.Second)
	for rt.LiveWorlds() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worlds still live after job finished", rt.LiveWorlds())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSequentialBaselineThroughPool: MaxDegree 1 is the §5.1 sequential
// fall-through; with an abort-injected first alternative the pool's
// lazy waves must advance to the second.
func TestSequentialBaselineThroughPool(t *testing.T) {
	rt := core.New(core.Config{})
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 8, Runtime: rt})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Drain(context.Background())

	spec := istm.TxnSpec{TxnID: 2, Keys: 4, Alts: 3, Ops: 6, ReadFrac: 0.2, Seed: 23, MaxDegree: 1}
	res := runSpec(t, pool, spec)
	if res.Status != serve.StatusDone {
		t.Fatalf("status %v (err %v), want done", res.Status, res.Err)
	}
	if res.Waves != 1 {
		t.Fatalf("degree-1 no-abort job took %d waves, want 1", res.Waves)
	}

	// Every second alternative aborts (indexes 1, 3): degree-1 execution
	// must still find a committing alternative within the block.
	spec = istm.TxnSpec{TxnID: 3, Keys: 4, Alts: 4, Ops: 6, ReadFrac: 0.2, Seed: 29, AbortEvery: 2, MaxDegree: 1}
	res = runSpec(t, pool, spec)
	if res.Status != serve.StatusDone {
		t.Fatalf("abort-injected sequential job: status %v (err %v), want done", res.Status, res.Err)
	}
	if out := res.Value.(Result); out.Winner%2 != 0 {
		t.Fatalf("winner %d is an abort-injected alternative", out.Winner)
	}
}

// TestExtractMatchesIndependentOracle: deriving a block's inputs once
// must not weaken its oracle. Blocks of the benchmark's stm stream race
// all four alternatives through the store — for at least 20 seeds, and
// on until every alternative has won at least 5 blocks. Each seed runs
// one block per alternative, spawned last (Go runs the newest goroutine
// first, so it usually wins; nothing forces it). For every block:
//   - every guard that ran read exactly GenOps' stream, the winner's
//     included;
//   - Extract's result passes istm.CheckFinal, which regenerates every
//     input from the seed, and names the alternative that committed;
//   - the final image with one loser's write injected is rejected by
//     the job's check and by istm.CheckFinal alike.
func TestExtractMatchesIndependentOracle(t *testing.T) {
	const alts, minSeeds, maxSeeds, minWins = 4, 20, 100, 5
	wins := make([]int, alts)
	blocks, injected := 0, 0
	for seed := int64(1); seed <= minSeeds || slices.Min(wins) < minWins; seed++ {
		if seed > maxSeeds {
			t.Fatalf("wins per alternative after %d seeds: %v", maxSeeds, wins)
		}
		spec := istm.TxnSpec{TxnID: seed, Keys: 8, Alts: alts, Ops: 10, ReadFrac: 0.5, Zipf: 1.2, Seed: seed}
		cfg := spec.Config()
		for last := 0; last < alts; last++ {
			block, out := runChecked(t, spec, last)
			blocks++
			wins[out.Winner]++
			final := append(append([]uint64(nil), out.Pages...), uint64(out.Winner)+1)
			if winner, err := istm.CheckFinal(cfg, final); err != nil || winner != out.Winner {
				t.Fatalf("seed %d: Extract named winner %d, pages %v; independent oracle: winner %d, %v",
					seed, out.Winner, out.Pages, winner, err)
			}
			for loser := 0; loser < alts; loser++ {
				if loser == out.Winner {
					continue
				}
				for _, op := range istm.GenOps(cfg, loser) {
					if op.Read || final[op.Key] == op.Val {
						continue
					}
					bad := append([]uint64(nil), final...)
					bad[op.Key] = op.Val
					if _, err := block.CheckFinal(bad); err == nil {
						t.Fatalf("seed %d winner %d: the job's check accepted loser %d's write to key %d", seed, out.Winner, loser, op.Key)
					}
					if _, err := istm.CheckFinal(cfg, bad); err == nil {
						t.Fatalf("seed %d winner %d: istm.CheckFinal accepted loser %d's write to key %d", seed, out.Winner, loser, op.Key)
					}
					injected++
					break
				}
			}
		}
	}
	if injected < blocks {
		t.Fatalf("only %d loser writes injected over %d blocks", injected, blocks)
	}
	t.Logf("%d blocks, wins per alternative %v", blocks, wins)
}

// runChecked runs spec's block with alternative last spawned last and
// returns the block and Extract's result, having checked that every
// guard read its body's stream. A block in which no alternative could
// commit (all lost a reply: ROADMAP item 1, a liveness failure this
// test does not measure) is run again.
func runChecked(t *testing.T, spec istm.TxnSpec, last int) (*istm.Block, Result) {
	t.Helper()
	const attempts = 3
	cfg := spec.Config()
	var lastErr error
	for a := 0; a < attempts; a++ {
		block := istm.NewBlock(cfg)
		job := jobFromBlock(spec, block)
		// Each guard checks its stream on its own alternative's goroutine,
		// concurrently with its siblings'.
		var mu sync.Mutex
		var wrong []string
		ran := make([]bool, len(job.Alts))
		for i := range job.Alts {
			i, guard := i, job.Alts[i].Guard
			job.Alts[i].Guard = func(w *core.World) (bool, error) {
				ok, err := guard(w)
				same := reflect.DeepEqual(block.Ops(i), istm.GenOps(cfg, i))
				mu.Lock()
				defer mu.Unlock()
				if !same {
					wrong = append(wrong, fmt.Sprintf("alternative %d's guard read %v", i, block.Ops(i)))
				}
				ran[i] = true
				return ok, err
			}
		}
		out, committed, err := runJobDirect(job, last)
		if err != nil {
			lastErr = err
			continue
		}
		if out.Winner != committed {
			t.Fatalf("seed %d: alternative %d committed, the store names %d", spec.Seed, committed, out.Winner)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(wrong) > 0 || !ran[committed] {
			t.Fatalf("seed %d winner %d: guards that did not read GenOps' stream: %v (winner's guard ran: %v)",
				spec.Seed, committed, wrong, ran[committed])
		}
		return block, out
	}
	t.Fatalf("seed %d: %d attempts failed, last: %v", spec.Seed, attempts, lastErr)
	return nil, Result{}
}

// runJobDirect runs job as the serve pool would, on its own runtime,
// with alternative last spawned last, and returns Extract's result and
// the index of the alternative that committed.
func runJobDirect(job serve.Job, last int) (Result, int, error) {
	rt := core.New(core.Config{})
	root, err := rt.NewRootWorld("root", 4<<10)
	if err != nil {
		return Result{}, -1, err
	}
	defer rt.Wait() // no world of this block outlives it
	defer rt.Shutdown(root)
	defer job.Cleanup(root)
	if err := job.Init(root); err != nil {
		return Result{}, -1, err
	}
	order := make([]int, 0, len(job.Alts))
	wave := make([]core.Alt, 0, len(job.Alts))
	for i := range job.Alts {
		if i != last {
			order, wave = append(order, i), append(wave, job.Alts[i])
		}
	}
	order, wave = append(order, last), append(wave, job.Alts[last])
	res, err := root.RunAlt(core.Options{SyncElimination: true}, wave...)
	if err != nil {
		return Result{}, -1, err
	}
	v, err := job.Extract(root)
	if err != nil {
		return Result{}, -1, err
	}
	return v.(Result), order[res.Index], nil
}

// TestLineageRetiresPerJob: a store's split lineage is dead once its job
// has cleaned up, so what the runtime keeps of it — the process table's
// child index, which is where the alias edges to split copies live —
// must return to empty after every job, and the 3 000th job must
// allocate what the 500th did. 3 000 stm_spec-shaped blocks through one
// pool, one in flight; MemStats and counts only.
//
// Allocation is compared per message sent, not per block: how many
// operations the losers get through before the winner commits is a
// matter of scheduling, and a run moves between modes of about 127 and
// 171 messages a block (109 and 139 KB) that have nothing to do with the
// runtime's age. Bookkeeping that is copied per split, as the alias map
// was, grows either figure.
func TestLineageRetiresPerJob(t *testing.T) {
	rt := core.New(core.Config{})
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 32, Runtime: rt})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	defer pool.Drain(context.Background())

	jobs := 3000
	if testing.Short() { // the -race -count=20 CI step
		jobs = 300
	}
	type mark struct {
		bytes uint64
		sent  int
	}
	var marks [4]mark
	takeMark := func() mark {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return mark{ms.TotalAlloc, rt.MsgStats().Sent}
	}
	byStatus := map[serve.Status]int{}
	for i := 0; i < jobs; i++ {
		if i%(jobs/3) == 0 {
			marks[i/(jobs/3)] = takeMark()
		}
		job := JobFromSpec(istm.TxnSpec{
			TxnID: int64(i), Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2,
			MaxDegree: 4, DeadlineMS: 100, Seed: int64(i) + 1,
		})
		cleaned := make(chan struct{})
		cleanup := job.Cleanup
		job.Cleanup = func(w *core.World) {
			cleanup(w)
			close(cleaned)
		}
		tk, err := pool.Submit(job)
		if err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
		// A lost reply (ROADMAP item 1) fails a job at its deadline; it
		// is cleaned up like any other.
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: wait: %v", i, err)
		}
		byStatus[res.Status]++
		pool.Forget(tk.ID())
		<-cleaned
		rt.Wait() // a copy that was mid-split when its store closed ends its own copies
		if n := rt.Procs().Indexed(); n != 0 {
			t.Fatalf("job %d: %d parents still indexed after Cleanup: its lineage was not retired", i, n)
		}
	}
	marks[3] = takeMark()
	if splits := rt.MsgStats().Splits; splits < jobs {
		t.Fatalf("%d splits in %d jobs: the workload no longer exercises the alias path", splits, jobs)
	}
	perMsg := func(a, b mark) float64 { return float64(b.bytes-a.bytes) / float64(b.sent-a.sent) }
	first, last := perMsg(marks[0], marks[1]), perMsg(marks[2], marks[3])
	t.Logf("bytes per message: %.0f over the first third, %.0f over the last (per block: %d and %d); jobs by status: %v",
		first, last, (marks[1].bytes-marks[0].bytes)/uint64(jobs/3), (marks[3].bytes-marks[2].bytes)/uint64(jobs/3), byStatus)
	if last > 1.25*first {
		t.Errorf("a message got dearer as the runtime aged: %.0f B over the last third, %.0f B over the first", last, first)
	}
}
