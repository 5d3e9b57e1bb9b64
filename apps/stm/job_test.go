package stm

import (
	"context"
	"runtime"
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
