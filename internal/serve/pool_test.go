package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"altrun/internal/core"
)

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Errorf("pool close: %v", err)
		}
	})
	return p
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, d)
}

// sleepAlt succeeds after d, aborting early if the world is cancelled.
func sleepAlt(name string, d time.Duration) core.Alt {
	return core.Alt{Name: name, Body: func(w *core.World) error {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if w.Cancelled() {
				return errors.New("cancelled")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}}
}

// spinAlt never succeeds: it runs until its world is cancelled.
func spinAlt(name string) core.Alt {
	return core.Alt{Name: name, Body: func(w *core.World) error {
		for !w.Cancelled() {
			time.Sleep(time.Millisecond)
		}
		return errors.New("cancelled")
	}}
}

// failAlt fails immediately.
func failAlt(name string) core.Alt {
	return core.Alt{Name: name, Body: func(w *core.World) error {
		return errors.New("deliberate failure")
	}}
}

// TestBudgetEnforced is the acceptance test for the speculation budget:
// 64 concurrent jobs × 4 alternatives against an 8-token pool must
// never hold more than 8 live speculative worlds at once.
func TestBudgetEnforced(t *testing.T) {
	const (
		jobs       = 64
		specTokens = 8
	)
	p := newTestPool(t, Config{
		Workers:    16,
		SpecTokens: specTokens,
		MaxDegree:  4,
		QueueDepth: jobs,
	})
	tickets := make([]*Ticket, 0, jobs)
	for i := 0; i < jobs; i++ {
		alts := make([]core.Alt, 4)
		for a := range alts {
			alts[a] = sleepAlt(fmt.Sprintf("alt-%d", a+1),
				time.Duration(1+(i+a)%4)*time.Millisecond)
		}
		tk, err := p.Submit(Job{Kind: "bench", Name: fmt.Sprintf("job-%d", i), Alts: alts})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, tk := range tickets {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if res.Status != StatusDone {
			t.Fatalf("job %d: status %v (err %v), want done", i, res.Status, res.Err)
		}
	}
	st := p.Stats()
	if st.SpecHighWater > specTokens {
		t.Fatalf("live speculative worlds peaked at %d, budget is %d tokens",
			st.SpecHighWater, specTokens)
	}
	if st.SpecHighWater == 0 {
		t.Fatal("SpecHighWater = 0; the observer metered nothing")
	}
	if st.JobsCompleted != jobs {
		t.Fatalf("JobsCompleted = %d, want %d", st.JobsCompleted, jobs)
	}
	if st.TokenWaits == 0 {
		t.Fatal("TokenWaits = 0; 64 jobs against 8 tokens should contend")
	}
	eventually(t, 5*time.Second, "all speculative worlds retired", func() bool {
		return p.Stats().SpecLive == 0
	})
}

// TestDefaultBudgetIsOneTokenPerCore: a pool that sets no SpecTokens gets
// one token per core, an explicit budget is kept as given (no clamp to
// the core count), and GOMAXPROCS concurrent CPU-bound degree-2 jobs on
// the default budget never hold more live speculative worlds than there
// are cores, yet every one of them commits.
func TestDefaultBudgetIsOneTokenPerCore(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	if got := newTestPool(t, Config{SpecTokens: 8}).Stats().SpecTokens; got != 8 {
		t.Fatalf("explicit SpecTokens 8: pool reports %d", got)
	}
	p := newTestPool(t, Config{})
	if got := p.Stats().SpecTokens; got != cores {
		t.Fatalf("default SpecTokens = %d, want GOMAXPROCS = %d", got, cores)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const rounds = 10
	for r := 0; r < rounds; r++ {
		tickets := make([]*Ticket, cores)
		for i := range tickets {
			tk, err := p.Submit(Job{Kind: "burn", Name: fmt.Sprintf("burn-%d-%d", r, i), MaxDegree: 2,
				Alts: []core.Alt{busyAlt("fast", time.Millisecond), busyAlt("slow", 3*time.Millisecond)}})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			tickets[i] = tk
		}
		for i, tk := range tickets {
			res, err := tk.Wait(ctx)
			if err != nil {
				t.Fatalf("round %d job %d: %v", r, i, err)
			}
			if res.Status != StatusDone {
				t.Fatalf("round %d job %d: status %v (err %v), want done", r, i, res.Status, res.Err)
			}
		}
	}
	st := p.Stats()
	if st.SpecHighWater > int64(cores) {
		t.Fatalf("live speculative worlds peaked at %d on %d cores", st.SpecHighWater, cores)
	}
	if want := int64(rounds * cores); st.JobsCompleted != want {
		t.Fatalf("JobsCompleted = %d, want %d", st.JobsCompleted, want)
	}
}

// TestDeadlineFreesWorlds is the acceptance test for deadline teardown:
// a deadline-killed job must leave zero live worlds behind.
func TestDeadlineFreesWorlds(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, SpecTokens: 4, QueueDepth: 4})
	tk, err := p.Submit(Job{
		Name:     "stuck",
		Alts:     []core.Alt{spinAlt("s1"), spinAlt("s2"), spinAlt("s3")},
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimedOut || !errors.Is(res.Err, ErrDeadline) {
		t.Fatalf("result = %v / %v, want timed-out / ErrDeadline", res.Status, res.Err)
	}
	eventually(t, 5*time.Second, "zero live worlds after deadline", func() bool {
		return p.Stats().SpecLive == 0 && p.Runtime().LiveWorlds() == 0
	})
	if got := p.Stats().JobsTimedOut; got != 1 {
		t.Fatalf("JobsTimedOut = %d, want 1", got)
	}
}

func TestCancelFreesWorlds(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, SpecTokens: 4, QueueDepth: 4})
	tk, err := p.Submit(Job{
		Name: "abandoned",
		Alts: []core.Alt{spinAlt("s1"), spinAlt("s2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, "speculation under way", func() bool {
		return p.Stats().SpecLive > 0
	})
	tk.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled || !errors.Is(res.Err, ErrCancelled) {
		t.Fatalf("result = %v / %v, want cancelled / ErrCancelled", res.Status, res.Err)
	}
	eventually(t, 5*time.Second, "zero live worlds after cancel", func() bool {
		return p.Stats().SpecLive == 0 && p.Runtime().LiveWorlds() == 0
	})
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, QueueDepth: 4})
	release := make(chan struct{})
	blocker := core.Alt{Name: "blocker", Body: func(w *core.World) error {
		for {
			select {
			case <-release:
				return nil
			default:
			}
			if w.Cancelled() {
				return errors.New("cancelled")
			}
			time.Sleep(time.Millisecond)
		}
	}}
	first, err := p.Submit(Job{Name: "holds-worker", Alts: []core.Alt{blocker}})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{}, 1)
	second, err := p.Submit(Job{Name: "cancelled-in-queue", Alts: []core.Alt{
		{Name: "witness", Body: func(w *core.World) error {
			ran <- struct{}{}
			return nil
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	second.Cancel()
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := first.Wait(ctx); err != nil || res.Status != StatusDone {
		t.Fatalf("first job = %v / %v, want done", res.Status, err)
	}
	res, err := second.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("queued-then-cancelled job status = %v, want cancelled", res.Status)
	}
	select {
	case <-ran:
		t.Fatal("cancelled job's alternative body ran")
	default:
	}
}

// TestLazyWaves: with a one-token budget every wave admits exactly one
// alternative, so a block whose first two alternatives fail commits on
// its third wave — and the waves after a commit are never spawned.
func TestLazyWaves(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 1, MaxDegree: 4, QueueDepth: 4})
	tk, err := p.Submit(Job{
		Kind: "lazy",
		Name: "third-time-lucky",
		Alts: []core.Alt{failAlt("a"), failAlt("b"), sleepAlt("c", time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone || res.Winner != "c" {
		t.Fatalf("result = %v winner %q (err %v), want done/c", res.Status, res.Winner, res.Err)
	}
	if res.Waves != 3 {
		t.Fatalf("Waves = %d, want 3 (one alternative per token-limited wave)", res.Waves)
	}
	if st := p.Stats(); st.LazyWaves != 2 {
		t.Fatalf("LazyWaves = %d, want 2", st.LazyWaves)
	}
}

// TestPriorityAdmission: with a degree cap of 1, the historically
// fastest alternative runs first and a commit leaves the declared-first
// (but historically losing) alternative unspawned.
func TestPriorityAdmission(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 4, QueueDepth: 4})
	p.History().Record("q", "fast", time.Millisecond)
	tk, err := p.Submit(Job{
		Kind:      "q",
		Name:      "learned",
		MaxDegree: 1,
		Alts:      []core.Alt{spinAlt("slow"), sleepAlt("fast", time.Millisecond)},
		Deadline:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone || res.Winner != "fast" {
		t.Fatalf("result = %v winner %q (err %v), want done/fast", res.Status, res.Winner, res.Err)
	}
	if res.Waves != 1 || res.AltsUnspawned != 1 {
		t.Fatalf("Waves=%d AltsUnspawned=%d, want 1 and 1: 'slow' should never spawn",
			res.Waves, res.AltsUnspawned)
	}
}

func TestAllAlternativesFail(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, QueueDepth: 4})
	tk, err := p.Submit(Job{Name: "doomed", Alts: []core.Alt{failAlt("a"), failAlt("b")}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailed || !errors.Is(res.Err, core.ErrAllFailed) {
		t.Fatalf("result = %v / %v, want failed / ErrAllFailed", res.Status, res.Err)
	}
}

func TestInitAndExtract(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, QueueDepth: 4})
	tk, err := p.Submit(Job{
		Name: "arith",
		Init: func(w *core.World) error { return w.WriteUint64(0, 7) },
		Alts: []core.Alt{{Name: "times-six", Body: func(w *core.World) error {
			v, err := w.ReadUint64(0)
			if err != nil {
				return err
			}
			return w.WriteUint64(8, v*6)
		}}},
		Extract: func(w *core.World) (any, error) {
			v, err := w.ReadUint64(8)
			return v, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDone {
		t.Fatalf("status = %v (err %v), want done", res.Status, res.Err)
	}
	if got, ok := res.Value.(uint64); !ok || got != 42 {
		t.Fatalf("Value = %v, want 42: the winner's writes must be visible to Extract", res.Value)
	}
}

func TestQueueFullRejected(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, QueueDepth: 1})
	release := make(chan struct{})
	blocker := core.Alt{Name: "blocker", Body: func(w *core.World) error {
		for {
			select {
			case <-release:
				return nil
			default:
			}
			if w.Cancelled() {
				return errors.New("cancelled")
			}
			time.Sleep(time.Millisecond)
		}
	}}
	first, err := p.Submit(Job{Name: "running", Alts: []core.Alt{blocker}})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, 10*time.Second, "first job running", func() bool {
		return first.Status() == StatusRunning
	})
	if _, err := p.Submit(Job{Name: "queued", Alts: []core.Alt{failAlt("x")}}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, err := p.Submit(Job{Name: "rejected", Alts: []core.Alt{failAlt("x")}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if st := p.Stats(); st.JobsRejected != 1 {
		t.Fatalf("JobsRejected = %d, want 1", st.JobsRejected)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, SpecTokens: 2, QueueDepth: 4})
	tk, err := p.Submit(Job{Name: "last", Alts: []core.Alt{sleepAlt("a", time.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, ok := tk.Result()
	if !ok || res.Status != StatusDone {
		t.Fatalf("job submitted before drain = %v ok=%v, want done", res.Status, ok)
	}
	if _, err := p.Submit(Job{Name: "late", Alts: []core.Alt{failAlt("x")}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

func TestTicketLookupAndForget(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 2, QueueDepth: 4})
	tk, err := p.Submit(Job{Name: "lookup", Alts: []core.Alt{sleepAlt("a", time.Millisecond)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Ticket(tk.ID())
	if err != nil || got.ID() != tk.ID() {
		t.Fatalf("Ticket(%d) = %v, %v", tk.ID(), got, err)
	}
	if _, err := p.Ticket(9999); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Ticket(unknown) err = %v, want ErrUnknownJob", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p.Forget(tk.ID())
	if _, err := p.Ticket(tk.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Ticket after Forget err = %v, want ErrUnknownJob", err)
	}
}

func TestSubmitRejectsEmptyJob(t *testing.T) {
	p := newTestPool(t, Config{Workers: 1, SpecTokens: 1, QueueDepth: 1})
	if _, err := p.Submit(Job{Name: "empty"}); err == nil {
		t.Fatal("submit with no alternatives should fail")
	}
}
