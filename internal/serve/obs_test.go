package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"altrun/internal/core"
	"altrun/internal/obs"
	"altrun/internal/trace"
)

// TestRecorderObservesJobs runs real jobs through a pool with a
// rate-1 flight recorder and checks the recorded timelines: phase
// decomposition reconciles with block wall time, counts match the
// block shape, and — once the EWMA history has seen a winner — the
// second submission of the same kind carries a predicted PI.
func TestRecorderObservesJobs(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{SampleRate: 1})
	p := newTestPool(t, Config{Workers: 2, SpecTokens: 8, Recorder: rec})
	if p.Recorder() != rec {
		t.Fatal("pool does not expose its recorder")
	}

	job := Job{
		Kind: "obs-test",
		Name: "blk",
		Alts: []core.Alt{
			{Name: "winner", Body: func(w *core.World) error {
				time.Sleep(5 * time.Millisecond)
				return w.WriteUint64(0, 42)
			}},
			{Name: "loser", Body: func(w *core.World) error {
				return core.ErrGuardFailed
			}},
		},
		TraceID: "trace-abc",
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	tk, err := p.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(ctx)
	if err != nil || res.Status != StatusDone {
		t.Fatalf("job 1: res=%+v err=%v", res, err)
	}

	tl, ok := rec.Timeline(tk.ID())
	if !ok {
		t.Fatalf("no timeline recorded for job %d", tk.ID())
	}
	if tl.Status != "done" || tl.Winner != "winner" {
		t.Fatalf("timeline outcome = %q/%q", tl.Status, tl.Winner)
	}
	if tl.TraceID != "trace-abc" {
		t.Fatalf("trace id = %q", tl.TraceID)
	}
	if sum := tl.Setup + tl.Runtime + tl.Selection + tl.Sched; sum != tl.Wall {
		t.Fatalf("phases %v+%v+%v+%v = %v, wall %v",
			tl.Setup, tl.Runtime, tl.Selection, tl.Sched, sum, tl.Wall)
	}
	if tl.Spawns != 2 || tl.Waves != 1 {
		t.Fatalf("spawns=%d waves=%d, want 2/1", tl.Spawns, tl.Waves)
	}
	if tl.Runtime < 4*time.Millisecond {
		t.Fatalf("runtime %v does not cover the winner's 5ms body", tl.Runtime)
	}
	// First block of a fresh kind: no history, so no prediction.
	if tl.PIPredicted != 0 || tl.PredictedMean != 0 {
		t.Fatalf("first block has prediction: %+v", tl)
	}

	// Second job of the same kind: the first winner seeded the EWMA,
	// so the recorder should now carry predicted taus and a PI.
	tk2, err := p.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk2.Wait(ctx); err != nil || res.Status != StatusDone {
		t.Fatalf("job 2: res=%+v err=%v", res, err)
	}
	tl2, ok := rec.Timeline(tk2.ID())
	if !ok {
		t.Fatal("no timeline for job 2")
	}
	if tl2.PredictedMean <= 0 || tl2.PredictedBest <= 0 {
		t.Fatalf("job 2 missing predicted taus: %+v", tl2)
	}
	if tl2.PIMeasured <= 0 || tl2.PIPredicted <= 0 {
		t.Fatalf("job 2 missing PI: meas=%v pred=%v", tl2.PIMeasured, tl2.PIPredicted)
	}
	if s := rec.Stats(); s.BlocksStarted != 2 || s.BlocksSampled != 2 {
		t.Fatalf("recorder stats: %+v", s)
	}
}

// TestCountersConcurrentUnderLoad drives a 64-way closed-loop
// workload while reader goroutines continuously snapshot every counter
// surface — pool stats (PoolCounters), runtime selection stats
// (SelCounters), transport counters (NetCounters), and the flight
// recorder — so the CI -race run proves the hot mutation paths and the
// /metrics read paths never race.
func TestCountersConcurrentUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	rec := obs.NewRecorder(obs.Config{SampleRate: 4})
	p := newTestPool(t, Config{Workers: 8, SpecTokens: 16, QueueDepth: 128, Recorder: rec})
	nc := &trace.NetCounters{}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var sink strings.Builder
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Stats()
				_ = p.Runtime().SelStats()
				_ = p.Runtime().MsgStats()
				_ = nc.Snapshot()
				_ = rec.Stats()
				_ = rec.Recent()
				sink.Reset()
				rec.WritePrometheus(&sink)
			}
		}()
	}
	// One writer hammers the transport counters like a live claim loop.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r0 := nc.RetryCount()
			if i%17 == 0 {
				nc.Retries.Add(1)
			}
			nc.ObserveRTTIfStable(time.Duration(i)*time.Microsecond, r0)
			nc.MsgsSent.Add(1)
		}
	}()

	const jobs = 64
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			job := Job{
				Kind: "race-load",
				Name: "blk",
				Alts: []core.Alt{
					{Name: "fast", Body: func(w *core.World) error {
						return w.WriteUint64(0, uint64(seq))
					}},
					{Name: "slow", Body: func(w *core.World) error {
						time.Sleep(time.Millisecond)
						return w.WriteUint64(0, uint64(seq))
					}},
				},
			}
			tk, err := p.Submit(job)
			if err != nil {
				t.Errorf("submit %d: %v", seq, err)
				return
			}
			if res, err := tk.Wait(ctx); err != nil || res.Status != StatusDone {
				t.Errorf("job %d: %+v %v", seq, res, err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if s := rec.Stats(); s.BlocksStarted != jobs {
		t.Fatalf("recorder saw %d blocks, want %d", s.BlocksStarted, jobs)
	}
}

// TestRecorderFailedJob: a job whose alternatives all fail must still
// retire its timeline with the failed status.
func TestRecorderFailedJob(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{SampleRate: 1})
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 4, Recorder: rec})
	tk, err := p.Submit(Job{Kind: "obs-fail", Name: "doomed", Alts: []core.Alt{
		{Name: "a", Body: func(w *core.World) error { return errors.New("nope") }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if res, _ := tk.Wait(ctx); res.Status != StatusFailed {
		t.Fatalf("status = %v", res.Status)
	}
	tl, ok := rec.Timeline(tk.ID())
	if !ok {
		t.Fatal("no timeline for failed job")
	}
	if tl.Status != "failed" || tl.Winner != "" {
		t.Fatalf("failed timeline = %q/%q", tl.Status, tl.Winner)
	}
}

// TestTimelineReadableWhenWaitReturns: a sampled job's ticket resolves
// only once its timeline is recorded, even when the job's Cleanup is
// slow — a caller that reads the timeline right after Wait must find
// it, with the phase decomposition still summing to the wall time.
func TestTimelineReadableWhenWaitReturns(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{SampleRate: 1})
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 4, Recorder: rec})
	tk, err := p.Submit(Job{
		Kind: "slow-cleanup",
		Alts: []core.Alt{{Name: "only", Body: func(w *core.World) error {
			return w.WriteUint64(0, 1)
		}}},
		Cleanup: func(*core.World) { time.Sleep(30 * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if res, err := tk.Wait(ctx); err != nil || res.Status != StatusDone {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	tl, ok := rec.Timeline(tk.ID())
	if !ok {
		t.Fatalf("no timeline for job %d when Wait returned", tk.ID())
	}
	if tl.Status != "done" {
		t.Fatalf("timeline status %q, want done", tl.Status)
	}
	if sum := tl.Setup + tl.Runtime + tl.Selection + tl.Sched; sum != tl.Wall {
		t.Fatalf("phases %v+%v+%v+%v = %v, wall %v",
			tl.Setup, tl.Runtime, tl.Selection, tl.Sched, sum, tl.Wall)
	}
}
