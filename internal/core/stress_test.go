package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
	"altrun/internal/proc"
	"altrun/internal/trace"
)

// Stress tests for the selection path under genuine concurrency: many
// blocks commit and eliminate at once while worlds register, split, and
// unregister. Run with -race. They enforce DESIGN.md §4 invariants 1
// (at most one commit per block) and 3 (no observable losers), and that
// contradiction chains always terminate.

// TestStressConcurrentSelectionInvariants runs many alternative blocks
// from parallel roots against one runtime while a churn goroutine
// registers and unregisters bystander worlds and speculative senders
// force server splits. Every commit, elimination, and split contends on
// the shared registry and subscription index.
func TestStressConcurrentSelectionInvariants(t *testing.T) {
	const (
		workers = 8
		rounds  = 12
		racers  = 3 // per block, plus one speculative sender
	)

	rt := New(Config{PageSize: 256, Trace: true})
	srv := rt.SpawnServer("counter", 4096, func(w *World, m msg.Message) {
		if m.Data == "inc" {
			v, err := w.ReadUint64(0)
			if err == nil {
				err = w.WriteUint64(0, v+1)
			}
			if err != nil {
				handlerErr(t, "server", err)
			}
		}
	})

	// Churn: register and unregister bystander worlds for the duration,
	// so propagation and subscription teardown race with registration.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			w, err := rt.NewRootWorld("churn", 256)
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
			rt.unregisterWorld(w)
			w.discardSpace()
		}
	}()

	var mu sync.Mutex
	winners := make(map[string]bool) // console lines the winners wrote

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root, err := rt.NewRootWorld(fmt.Sprintf("root-%d", g), 1024)
			if err != nil {
				t.Errorf("root %d: %v", g, err)
				return
			}
			for r := 0; r < rounds; r++ {
				alts := make([]Alt, racers+1)
				for i := 0; i < racers; i++ {
					i := i
					line := fmt.Sprintf("g%d r%d alt%d", g, r, i)
					alts[i] = Alt{Name: "racer", Body: func(w *World) error {
						if err := w.WriteConsole(line); err != nil {
							return err
						}
						return w.WriteUint64(0, uint64(i+1))
					}}
				}
				// The speculative sender talks to the server before
				// losing: the split races with its own elimination.
				alts[racers] = Alt{Name: "sender", Body: func(w *World) error {
					if err := w.Send(srv.PID(), "inc"); err != nil {
						return err
					}
					w.Sleep(10 * time.Second) // cancel-aware; always loses
					return nil
				}}
				sync := r%2 == 0
				res, err := root.RunAlt(Options{SyncElimination: sync}, alts...)
				if err != nil {
					t.Errorf("g%d r%d: %v", g, r, err)
					return
				}
				if res.Index >= racers {
					t.Errorf("g%d r%d: sleeping sender won", g, r)
					return
				}
				// Invariants 1+2: the committed state is exactly the
				// declared winner's write.
				v, err := root.ReadUint64(0)
				if err != nil {
					t.Errorf("g%d r%d: %v", g, r, err)
					return
				}
				if v != uint64(res.Index+1) {
					t.Errorf("g%d r%d: state %d does not match declared winner %d", g, r, v, res.Index+1)
					return
				}
				mu.Lock()
				winners[fmt.Sprintf("g%d r%d alt%d", g, r, res.Index)] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()
	// Splits resolve asynchronously. Every speculative sender lost its
	// block, so once the queued split requests drain, exactly one server
	// copy survives (the transitive deny-copy); then shut it down.
	deadline := time.Now().Add(30 * time.Second)
	for len(rt.Copies(srv.PID())) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("server copies never settled: %d live", len(rt.Copies(srv.PID())))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, cw := range rt.Copies(srv.PID()) {
		rt.Shutdown(cw)
	}
	rt.Wait()

	// Invariant 1 globally: each of the workers×rounds blocks committed
	// exactly once — no double grants anywhere.
	if got, want := rt.Log().Count(trace.KindCommit), workers*rounds; got != want {
		t.Errorf("commits = %d, want %d (one per block)", got, want)
	}
	// Invariant 3 on sources: every console line is a declared winner's;
	// no eliminated sibling's output ever reached the device.
	out := rt.Console().Output()
	seen := make(map[string]int)
	for _, line := range out {
		if !winners[line] {
			t.Errorf("console shows loser output %q", line)
		}
		seen[line]++
	}
	for line := range winners {
		if seen[line] != 1 {
			t.Errorf("winner line %q appeared %d times, want 1", line, seen[line])
		}
	}
	// The machinery under test actually ran.
	stats := rt.SelStats()
	if stats.Eliminations == 0 || stats.Resolutions == 0 {
		t.Errorf("selection counters did not move: %+v", stats)
	}
}

// TestStressContradictionChainsTerminate eliminates losers that are in
// the middle of nested alternative blocks, so each elimination must
// walk an in-flight subtree to quiescence. The nested losers' children
// never subscribe to their block's fates; they are eliminated through
// the child cascade, and every one of them must be, each round. Each
// inner child first messages a server, whose split copies assume the
// sender's whole predicate set: the outer commit and the cascade must
// contradict those copies away. The test's only liberal resource is
// time: if a chain ever fails to terminate, rt.Wait() hangs and the
// watchdog fails the test.
func TestStressContradictionChainsTerminate(t *testing.T) {
	const rounds = 8

	rt := New(Config{PageSize: 256, Trace: true})
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}

	// The server records, per round, which inner children's messages a
	// copy of it has handled (always an assume-copy: a sender's first
	// message splits the lineage).
	var seenMu sync.Mutex
	seen := make([]map[ids.PID]bool, rounds)
	for r := range seen {
		seen[r] = make(map[ids.PID]bool)
	}
	srv := rt.SpawnServer("log", 1024, func(w *World, m msg.Message) {
		seenMu.Lock()
		seen[m.Data.(int)][m.Sender] = true
		seenMu.Unlock()
	})
	handled := func(r int) int {
		seenMu.Lock()
		defer seenMu.Unlock()
		return len(seen[r])
	}

	// Bystander churn while cascades run: registration and subscription
	// teardown race with contradiction propagation.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			w, err := rt.NewRootWorld("churn", 256)
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
			rt.unregisterWorld(w)
			w.discardSpace()
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			inner := newTestProbe() // records every inner child
			innerBody := func(g *World) error {
				// Resend until a copy has handled a message of this
				// round: a message that reaches a copy while it hands
				// its queue over to its own split copies can be lost.
				for handled(r) == 0 {
					if err := g.Send(srv.PID(), r); err != nil {
						return err
					}
					g.Sleep(time.Millisecond) // cancel-aware
				}
				g.Sleep(30 * time.Second)
				return nil
			}
			slowInner := func(w *World) error {
				// A nested block whose children are alive when the
				// outer winner eliminates this subtree.
				_, err := w.RunAlt(Options{Probe: inner},
					Alt{Name: "inner-a", Body: innerBody},
					Alt{Name: "inner-b", Body: innerBody},
				)
				return err
			}
			res, err := root.RunAlt(Options{SyncElimination: r%2 == 0},
				Alt{Name: "fast", Body: func(w *World) error {
					// Win only once the server has split on an inner
					// child's message: the assume-copy that handled it
					// assumes this alternative fails, so the commit must
					// contradict it.
					deadline := time.Now().Add(10 * time.Second)
					for handled(r) == 0 {
						if time.Now().After(deadline) {
							t.Errorf("round %d: the server handled no inner child's message", r)
							break
						}
						time.Sleep(100 * time.Microsecond)
					}
					return w.WriteUint64(0, uint64(r+1))
				}},
				Alt{Name: "nested-1", Body: slowInner},
				Alt{Name: "nested-2", Body: slowInner},
			)
			if err != nil {
				t.Errorf("round %d: %v", r, err)
				return
			}
			if res.Name != "fast" {
				t.Errorf("round %d: winner %q, want fast", r, res.Name)
				return
			}
			inner.mu.Lock()
			spawned := append([]ids.PID(nil), inner.spawned...)
			inner.mu.Unlock()
			// fast waited for an inner child, so at least one nested
			// block ran; the other may have lost before it started.
			if len(spawned) < 2 {
				t.Errorf("round %d: %d inner children spawned, want 2 or 4", r, len(spawned))
				return
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, p := range spawned {
				for rt.procs.Status(p) != proc.Eliminated {
					if time.Now().After(deadline) {
						t.Errorf("round %d: inner child %v is %v, want eliminated", r, p, rt.procs.Status(p))
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
		close(stopChurn)
		churnWG.Wait()
		// Every sender is dead, so the split copies settle to one.
		deadline := time.Now().Add(30 * time.Second)
		for len(rt.Copies(srv.PID())) != 1 {
			if time.Now().After(deadline) {
				t.Errorf("server copies never settled: %d live", len(rt.Copies(srv.PID())))
				break
			}
			time.Sleep(time.Millisecond)
		}
		for _, cw := range rt.Copies(srv.PID()) {
			rt.Shutdown(cw)
		}
		rt.Wait() // every eliminated subtree must unwind
	}()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("contradiction cascade did not terminate: rt.Wait() hung")
	}

	// The cascades genuinely exercised contradiction chains: the server
	// copies that assumed an eliminated sender were contradicted away.
	if n := rt.Log().Count(trace.KindContradiction); n == 0 {
		t.Error("no contradiction events recorded; cascade path untested")
	}
	if got, want := rt.Log().Count(trace.KindCommit), 0; got == want {
		t.Error("no commits recorded")
	}
}
