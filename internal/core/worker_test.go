package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"altrun/internal/arbiter"
)

// Worker-reuse tests: the real backend runs bodies on parked worker
// goroutines, so a body must see nothing of the one that ran before it
// on the same worker, and Wait must leave no worker behind.

func idleWorkers(b *realBackend) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.idle)
}

// awaitIdle waits for exactly n workers to be parked.
func awaitIdle(t *testing.T, b *realBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for idleWorkers(b) != n {
		if time.Now().After(deadline) {
			t.Fatalf("idle workers: %d, want %d", idleWorkers(b), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitGoroutines waits for the goroutine count to fall to baseline; a
// goroutine still counts for a moment after its last deferred call.
func awaitGoroutines(t *testing.T, baseline int, collect bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if collect {
			runtime.GC()
		}
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitReturn fails the test if wait does not return within 5 s.
func awaitReturn(t *testing.T, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestWorkerKilledBodyLeavesNextUncancelled: a loser killed in its body
// parks its worker, and the bodies the next block runs on the two
// parked workers start uncancelled and are not cut short.
func TestWorkerKilledBodyLeavesNextUncancelled(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("root", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)

	entered := make(chan struct{})
	_, err = root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "win", Body: func(w *World) error {
			<-entered
			return w.WriteUint64(0, 1)
		}},
		Alt{Name: "sleep", Body: func(w *World) error {
			close(entered)
			w.Sleep(time.Minute) // until its elimination kills it
			if !w.Cancelled() {
				return errors.New("woke uncancelled")
			}
			return ErrEliminated
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	awaitIdle(t, rt.realBE, 2)

	const nap = 20 * time.Millisecond
	var barrier sync.WaitGroup
	barrier.Add(2)
	var mu sync.Mutex
	var bad []string
	body := func(w *World) error {
		barrier.Done()
		barrier.Wait() // neither can have committed yet
		start := time.Now()
		cancelled := w.Cancelled()
		w.Sleep(nap)
		mu.Lock()
		defer mu.Unlock()
		if cancelled {
			bad = append(bad, w.Name()+" started cancelled")
		}
		if slept := time.Since(start); slept < nap && !w.Cancelled() {
			bad = append(bad, w.Name()+" woke early uncancelled")
		}
		return w.WriteUint64(0, 2)
	}
	if _, err := root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "a", Body: body}, Alt{Name: "b", Body: body}); err != nil {
		t.Fatal(err)
	}
	// Both bodies ran on the parked workers: no third worker was made.
	awaitIdle(t, rt.realBE, 2)
	mu.Lock()
	defer mu.Unlock()
	for _, s := range bad {
		t.Error(s)
	}
}

// TestWorkerEachBodySeesItsOwnCtx: across blocks that reuse workers,
// every body's World.ctx is its own process, the one its handle kills.
func TestWorkerEachBodySeesItsOwnCtx(t *testing.T) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("root", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)

	const rounds, width = 8, 3
	var mu sync.Mutex
	seen := map[*realCtx]bool{}
	for r := 0; r < rounds; r++ {
		var barrier sync.WaitGroup
		barrier.Add(width)
		alts := make([]Alt, width)
		for i := range alts {
			alts[i] = Alt{Body: func(w *World) error {
				barrier.Done()
				barrier.Wait()
				w.mu.Lock() // the spawner publishes the handle under it
				h := w.handle
				w.mu.Unlock()
				c, _ := w.ctx.(*realCtx)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case c == nil || procHandle(c) != h:
					t.Errorf("round %d: body's ctx %p is not its handle %p", r, c, h)
				case seen[c]:
					t.Errorf("round %d: ctx %p seen by an earlier body", r, c)
				}
				seen[c] = true
				return w.WriteUint64(0, uint64(i))
			}}
		}
		if _, err := root.RunAlt(Options{SyncElimination: true}, alts...); err != nil {
			t.Fatal(err)
		}
		awaitIdle(t, rt.realBE, width)
	}
	if len(seen) != rounds*width {
		t.Fatalf("%d distinct contexts, want %d", len(seen), rounds*width)
	}
}

// TestWorkerBurstKeepsIdleCapAndWaitRetires: a burst of concurrent
// spawns past the cap parks at most maxIdleWorkers workers, the rest
// exit, and Wait leaves no goroutine behind; a second burst after Wait
// starts workers afresh.
func TestWorkerBurstKeepsIdleCapAndWaitRetires(t *testing.T) {
	const burst = 64
	if burst <= maxIdleWorkers {
		t.Fatalf("burst %d does not exceed the cap %d", burst, maxIdleWorkers)
	}
	baseline := runtime.NumGoroutine()
	rt := New(Config{})
	b := rt.realBE
	for round := 0; round < 2; round++ {
		release := make(chan struct{})
		var started sync.WaitGroup
		started.Add(burst)
		for i := 0; i < burst; i++ {
			b.spawn("burst", func(execCtx) {
				started.Done()
				<-release
			})
		}
		started.Wait() // all running at once: one worker each

		stop, sampled := make(chan struct{}), make(chan int)
		go func() {
			most := 0
			for {
				most = max(most, idleWorkers(b))
				select {
				case <-stop:
					sampled <- most
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		close(release)
		awaitReturn(t, "bodies.Wait", b.bodies.Wait)
		close(stop)
		if most := <-sampled; most > maxIdleWorkers {
			t.Fatalf("round %d: %d idle workers, cap %d", round, most, maxIdleWorkers)
		}
		if n := idleWorkers(b); n != maxIdleWorkers {
			t.Fatalf("round %d: %d idle workers after the burst, want %d", round, n, maxIdleWorkers)
		}
		awaitReturn(t, "Wait", rt.Wait)
		if n := idleWorkers(b); n != 0 {
			t.Fatalf("round %d: %d idle workers after Wait", round, n)
		}
		awaitGoroutines(t, baseline, false)
	}
}

// TestWorkerGoexitBodyLetsWaitReturn: a body that leaves through
// runtime.Goexit (as t.FailNow does) counts as returned, and its worker
// exits instead of parking.
func TestWorkerGoexitBodyLetsWaitReturn(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rt := New(Config{})
	b := rt.realBE
	b.spawn("warm", func(execCtx) {})
	awaitIdle(t, b, 1)
	b.spawn("goexit", func(execCtx) { runtime.Goexit() }) // takes the parked worker
	awaitReturn(t, "bodies.Wait", b.bodies.Wait)
	if n := idleWorkers(b); n != 0 {
		t.Fatalf("%d idle workers: the Goexit worker was parked", n)
	}
	rt.GoRoot("goexit-root", 1<<12, func(*World) { runtime.Goexit() })
	awaitReturn(t, "Wait", rt.Wait)
	awaitGoroutines(t, baseline, false)
}

// TestWorkerDroppedRuntimeRetiresIdle: a runtime dropped without Wait
// lets its parked workers go once it is collected.
func TestWorkerDroppedRuntimeRetiresIdle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		rt := New(Config{})
		root, err := rt.NewRootWorld("root", 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := root.RunAlt(Options{SyncElimination: true},
			Alt{Body: func(w *World) error { return w.WriteUint64(0, 1) }},
			Alt{Body: func(w *World) error { return w.WriteUint64(0, 2) }},
		); err != nil {
			t.Fatal(err)
		}
		awaitIdle(t, rt.realBE, 2)
	}()
	awaitGoroutines(t, baseline, true)
}

// TestRealInboxReleasesAndRewinds: a dequeued slot holds nothing, an
// emptied queue reuses its array from the start, and a queue that never
// empties stays FIFO without growing past what it holds.
func TestRealInboxReleasesAndRewinds(t *testing.T) {
	q := (&realBackend{}).newInbox().(*realInbox)
	for i := 0; i < 4; i++ {
		q.put(i)
	}
	array := &q.queue[:1][0]
	for i := 0; i < 4; i++ {
		if v, ok := q.tryGet(); !ok || v != i {
			t.Fatalf("get %d: %v, %v", i, v, ok)
		}
	}
	if len(q.queue) != 0 || q.head != 0 {
		t.Fatalf("emptied queue: len %d head %d", len(q.queue), q.head)
	}
	for i, v := range q.queue[:cap(q.queue)] {
		if v != nil {
			t.Fatalf("slot %d still holds %v", i, v)
		}
	}
	q.put(4)
	if &q.queue[:1][0] != array {
		t.Fatal("the next burst did not reuse the array")
	}
	if v, _ := q.tryGet(); v != 4 {
		t.Fatalf("got %v, want 4", v)
	}

	// Never empty: one in, one out, with a standing backlog of 3.
	next, want := 0, 0
	for ; next < 3; next++ {
		q.put(next)
	}
	for ; next < 1000; next++ {
		q.put(next)
		if v, ok := q.tryGet(); !ok || v != want {
			t.Fatalf("get: %v, %v; want %d", v, ok, want)
		}
		want++
	}
	if n := q.size(); n != 3 {
		t.Fatalf("size %d, want 3", n)
	}
	if c := cap(q.queue); c > 8 {
		t.Fatalf("a backlog of 3 grew the array to %d", c)
	}
	for i, v := range q.queue[:q.head] {
		if v != nil {
			t.Fatalf("dequeued slot %d still holds %v", i, v)
		}
	}
	if got := q.drain(); len(got) != 3 || got[0] != want {
		t.Fatalf("drain: %v", got)
	}
}

// BenchmarkRunAltTwoWay is one commit_null-shaped block: a writer and a
// loser asleep until eliminated, synchronous elimination and a local
// arbiter. Its setup is the two spawns this backend's workers serve.
func BenchmarkRunAltTwoWay(b *testing.B) {
	rt := New(Config{})
	root, err := rt.NewRootWorld("root", 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	if err := root.WriteUint64(0, 1); err != nil {
		b.Fatal(err)
	}
	alts := []Alt{
		{Name: "write", Body: func(w *World) error { return w.WriteUint64(0, 2) }},
		{Name: "sleep", Body: func(w *World) error {
			w.Sleep(time.Second)
			if w.Cancelled() {
				return ErrEliminated
			}
			return w.WriteUint64(0, 3)
		}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var arb arbiter.Local
		claim := func(w *World) bool { return arb.Claim(w.PID()) }
		if _, err := root.RunAlt(Options{SyncElimination: true, Claim: claim}, alts...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rt.Shutdown(root)
	rt.Wait()
}

// BenchmarkRunAltForkWrite is one fork_write-shaped block: 3
// alternatives on a 4 MiB root, each reading 256 pages, writing 256
// others (a page copy each) and writing 32 of those again, over
// seed-made page plans. Synchronous elimination and a local arbiter, as
// in BenchmarkRunAltTwoWay. The page layer does most of its work.
func BenchmarkRunAltForkWrite(b *testing.B) {
	const (
		pageSize = 4096
		pages    = 1024
		touch    = 256
		rewrite  = 32
		plans    = 16
	)
	rt := New(Config{PageSize: pageSize})
	root, err := rt.NewRootWorld("root", pages*pageSize)
	if err != nil {
		b.Fatal(err)
	}
	for p := int64(0); p < pages; p++ {
		if err := root.WriteUint64(p*pageSize, 1); err != nil {
			b.Fatal(err)
		}
	}
	// Each plan gives every alternative touch pages to read and touch
	// other pages to write.
	r := rand.New(rand.NewSource(42))
	blocks := make([][]Alt, plans)
	for i := range blocks {
		for a := 0; a < 3; a++ {
			perm := r.Perm(pages)
			reads, writes, mine := perm[:touch], perm[touch:2*touch], uint64(a+2)
			blocks[i] = append(blocks[i], Alt{Name: "alt", Body: func(w *World) error {
				for _, p := range reads {
					if _, err := w.ReadUint64(int64(p) * pageSize); err != nil {
						return err
					}
				}
				for _, p := range writes {
					if err := w.WriteUint64(int64(p)*pageSize+8, mine); err != nil {
						return err
					}
				}
				for _, p := range writes[:rewrite] {
					if err := w.WriteUint64(int64(p)*pageSize+16, mine); err != nil {
						return err
					}
				}
				return nil
			}})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var arb arbiter.Local
		claim := func(w *World) bool { return arb.Claim(w.PID()) }
		if _, err := root.RunAlt(Options{SyncElimination: true, Claim: claim}, blocks[i%plans]...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rt.Shutdown(root)
	rt.Wait()
}
