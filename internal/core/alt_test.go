package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/proc"
	"altrun/internal/sim"
	"altrun/internal/trace"
)

// zeroProfile has no modelled overhead: timing assertions then depend
// only on Compute/Sleep calls.
func zeroProfile(cpus int) sim.MachineProfile {
	return sim.MachineProfile{Name: "zero", PageSize: 64, CPUs: cpus}
}

func simRT(t *testing.T, cpus int) *Runtime {
	t.Helper()
	return NewSim(SimConfig{Profile: zeroProfile(cpus), Trace: true})
}

// runBlock runs one alternative block under a root world and returns
// the root world, result, and error.
func runBlock(t *testing.T, rt *Runtime, spaceSize int64, opts Options, alts ...Alt) (*World, Result, error) {
	t.Helper()
	var (
		res  Result
		rerr error
		root *World
	)
	root = rt.GoRoot("root", spaceSize, func(w *World) {
		res, rerr = w.RunAlt(opts, alts...)
	})
	if err := rt.Run(); err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return root, res, rerr
}

func TestFastestFirstWins(t *testing.T) {
	rt := simRT(t, 0) // unlimited CPUs: real concurrency
	durations := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	alts := make([]Alt, len(durations))
	for i, d := range durations {
		d := d
		alts[i] = Alt{Name: []string{"slow", "fast", "mid"}[i], Body: func(w *World) error {
			w.Compute(d)
			return w.WriteUint64(0, uint64(d/time.Second))
		}}
	}
	_, res, err := runBlock(t, rt, 1024, Options{}, alts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != 1 || res.Name != "fast" {
		t.Fatalf("winner = %d %q, want 1 fast", res.Index, res.Name)
	}
	if res.Elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s (fastest, zero overhead)", res.Elapsed)
	}
}

func TestTransparency(t *testing.T) {
	// The parent's state after the block equals what a sequential
	// execution of the winning alternative would have produced.
	rt := simRT(t, 0)
	root, res, err := runBlock(t, rt, 1024, Options{},
		Alt{Name: "loser", Body: func(w *World) error {
			w.Compute(20 * time.Second)
			return w.WriteAt(bytes.Repeat([]byte{0xBB}, 100), 0)
		}},
		Alt{Name: "winner", Body: func(w *World) error {
			w.Compute(5 * time.Second)
			if err := w.WriteAt([]byte("result"), 0); err != nil {
				return err
			}
			return w.WriteUint64(512, 42)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "winner" {
		t.Fatalf("winner = %q", res.Name)
	}
	got := make([]byte, 6)
	if err := root.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "result" {
		t.Fatalf("root state = %q, want %q", got, "result")
	}
	v, err := root.ReadUint64(512)
	if err != nil || v != 42 {
		t.Fatalf("root[512] = %d, %v", v, err)
	}
}

func TestLoserWritesInvisible(t *testing.T) {
	rt := simRT(t, 0)
	root, _, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "winner", Body: func(w *World) error {
			w.Compute(time.Second)
			return w.WriteAt([]byte("W"), 0)
		}},
		Alt{Name: "loser", Body: func(w *World) error {
			// Writes immediately, then loses the race.
			if err := w.WriteAt([]byte("EVIL"), 100); err != nil {
				return err
			}
			w.Compute(time.Hour)
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("loser's write leaked: %q", buf)
	}
}

func TestAllFailed(t *testing.T) {
	rt := simRT(t, 0)
	boom := errors.New("boom")
	root, _, err := runBlock(t, rt, 1024, Options{},
		Alt{Name: "a", Body: func(w *World) error {
			if werr := w.WriteAt([]byte("junk"), 0); werr != nil {
				return werr
			}
			return boom
		}},
		Alt{Name: "b", Body: func(w *World) error { return boom }},
	)
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
	// FAIL leaves the parent unchanged.
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("failed block mutated parent: %q", buf)
	}
}

func TestGuardFailure(t *testing.T) {
	rt := simRT(t, 0)
	_, res, err := runBlock(t, rt, 1024, Options{},
		Alt{
			Name: "fast-but-wrong",
			Body: func(w *World) error { w.Compute(time.Second); return nil },
			Guard: func(w *World) (bool, error) {
				return false, nil // fails its ENSURE
			},
		},
		Alt{
			Name:  "slow-but-right",
			Body:  func(w *World) error { w.Compute(10 * time.Second); return nil },
			Guard: func(w *World) (bool, error) { return true, nil },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "slow-but-right" {
		t.Fatalf("winner = %q", res.Name)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
}

func TestGuardRecheck(t *testing.T) {
	rt := simRT(t, 0)
	calls := 0
	_, _, err := runBlock(t, rt, 1024, Options{RecheckGuard: true},
		Alt{
			Name:  "a",
			Body:  func(w *World) error { return nil },
			Guard: func(w *World) (bool, error) { calls++; return true, nil },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("guard calls = %d, want 2 (child + sync point)", calls)
	}
}

func TestTimeout(t *testing.T) {
	rt := simRT(t, 0)
	root, _, err := runBlock(t, rt, 1024, Options{Timeout: 5 * time.Second},
		Alt{Name: "too-slow", Body: func(w *World) error {
			w.Compute(time.Hour)
			return w.WriteAt([]byte("late"), 0)
		}},
	)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatal("timed-out block mutated parent")
	}
	// Virtual time must be ~5s, not an hour: the child was killed.
	if got := rt.Engine().Now().Sub(time.Unix(0, 0).UTC()); got > time.Minute {
		t.Fatalf("simulation ran to %v; child not killed on timeout", got)
	}
}

func TestChildFinishingAfterWinnerIsTooLate(t *testing.T) {
	rt := simRT(t, 0)
	_, res, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "fast", Body: func(w *World) error { w.Compute(time.Second); return nil }},
		// Finishes immediately after via sleep so that elimination may
		// not have reached it before it attempts synchronization.
		Alt{Name: "close-second", Body: func(w *World) error { w.Sleep(time.Second); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fast" {
		t.Fatalf("winner = %q", res.Name)
	}
}

func TestEmptyBlockFails(t *testing.T) {
	rt := simRT(t, 0)
	_, _, err := runBlock(t, rt, 1024, Options{})
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedBlocks(t *testing.T) {
	rt := simRT(t, 0)
	var inner Result
	root := rt.GoRoot("root", 1024, func(w *World) {
		res, err := w.RunAlt(Options{},
			Alt{Name: "outer-a", Body: func(cw *World) error {
				// Nested alternative block inside an alternative.
				r, err := cw.RunAlt(Options{},
					Alt{Name: "inner-slow", Body: func(g *World) error {
						g.Compute(20 * time.Second)
						return g.WriteAt([]byte("slow"), 0)
					}},
					Alt{Name: "inner-fast", Body: func(g *World) error {
						g.Compute(2 * time.Second)
						return g.WriteAt([]byte("fast"), 0)
					}},
				)
				inner = r
				return err
			}},
			Alt{Name: "outer-b", Body: func(cw *World) error {
				cw.Compute(time.Hour)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("outer block: %v", err)
		}
		if res.Name != "outer-a" {
			t.Errorf("outer winner = %q", res.Name)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if inner.Name != "inner-fast" {
		t.Fatalf("inner winner = %q", inner.Name)
	}
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fast" {
		t.Fatalf("root state = %q", buf)
	}
}

func TestSingleCPUVirtualConcurrency(t *testing.T) {
	// On one CPU, racing costs: three 10s alternatives each get 1/3 of
	// the processor; the first finishes at 30s (§4.3 runtime overhead).
	rt := simRT(t, 1)
	_, res, err := runBlock(t, rt, 1024, Options{},
		Alt{Name: "a", Body: func(w *World) error { w.Compute(10 * time.Second); return nil }},
		Alt{Name: "b", Body: func(w *World) error { w.Compute(10 * time.Second); return nil }},
		Alt{Name: "c", Body: func(w *World) error { w.Compute(10 * time.Second); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 30*time.Second {
		t.Fatalf("elapsed = %v, want 30s on a single shared CPU", res.Elapsed)
	}
}

func TestForkAndCopyChargesAppear(t *testing.T) {
	profile := zeroProfile(0)
	profile.ForkBase = 10 * time.Millisecond
	profile.PageCopy = time.Millisecond
	rt := NewSim(SimConfig{Profile: profile, Trace: true})
	var res Result
	rt.GoRoot("root", 1024, func(w *World) {
		// Prime parent pages so children fork a resident space.
		if err := w.WriteAt(bytes.Repeat([]byte{1}, 1024), 0); err != nil {
			t.Error(err)
			return
		}
		r, err := w.RunAlt(Options{},
			Alt{Name: "a", Body: func(cw *World) error {
				// Touch 4 pages → 4 COW copies at 1ms each.
				for i := int64(0); i < 4; i++ {
					if err := cw.WriteAt([]byte{2}, i*64); err != nil {
						return err
					}
				}
				return nil
			}},
			Alt{Name: "b", Body: func(cw *World) error {
				cw.Compute(time.Hour)
				return nil
			}},
		)
		if err != nil {
			t.Error(err)
			return
		}
		res = r
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Setup: 2 forks of a 16-page space at 10ms base = 20ms; runtime:
	// 4 copies at 1ms = 4ms. Winner elapsed >= 24ms.
	if res.Elapsed < 24*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 24ms of modelled overhead", res.Elapsed)
	}
	if res.WinnerCopies != 4 {
		t.Fatalf("WinnerCopies = %d, want 4", res.WinnerCopies)
	}
}

func TestFullCopyNoSharing(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		if err := w.WriteAt(bytes.Repeat([]byte{1}, 1024), 0); err != nil {
			t.Error(err)
			return
		}
		copiesBefore := rt.Store().Copies()
		_, err := w.RunAlt(Options{FullCopy: true, SyncElimination: true},
			Alt{Name: "a", Body: func(cw *World) error {
				// Writing must cause no COW copies: pages are private.
				return cw.WriteAt([]byte{9}, 0)
			}},
		)
		if err != nil {
			t.Error(err)
			return
		}
		if rt.Store().Copies() != copiesBefore {
			t.Errorf("full-copy child caused %d COW copies",
				rt.Store().Copies()-copiesBefore)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncVsAsyncElimination(t *testing.T) {
	for _, syncElim := range []bool{true, false} {
		profile := zeroProfile(0)
		profile.CommitPerSibling = 100 * time.Millisecond
		rt := NewSim(SimConfig{Profile: profile, Trace: true})
		var res Result
		rt.GoRoot("root", 1024, func(w *World) {
			r, err := w.RunAlt(Options{SyncElimination: syncElim},
				Alt{Name: "fast", Body: func(cw *World) error { cw.Compute(time.Second); return nil }},
				Alt{Name: "s1", Body: func(cw *World) error { cw.Compute(time.Hour); return nil }},
				Alt{Name: "s2", Body: func(cw *World) error { cw.Compute(time.Hour); return nil }},
			)
			if err != nil {
				t.Error(err)
				return
			}
			res = r
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if syncElim {
			// 1s compute + 2 × 100ms elimination on the parent's clock.
			if res.Elapsed < 1200*time.Millisecond {
				t.Fatalf("sync elimination: elapsed = %v, want >= 1.2s", res.Elapsed)
			}
		} else if res.Elapsed != time.Second {
			t.Fatalf("async elimination: elapsed = %v, want 1s (deletion off the critical path)", res.Elapsed)
		}
		if rt.Log().Count(trace.KindEliminate) != 2 {
			t.Fatalf("eliminations = %d, want 2", rt.Log().Count(trace.KindEliminate))
		}
	}
}

func TestDeferredConsoleOutput(t *testing.T) {
	rt := simRT(t, 0)
	_, _, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "winner", Body: func(w *World) error {
			w.Compute(time.Second)
			// Speculative: must not hit the console until commit.
			return w.WriteConsole("bottling beer")
		}},
		Alt{Name: "loser", Body: func(w *World) error {
			if err := w.WriteConsole("writing checks"); err != nil {
				return err
			}
			w.Compute(time.Hour)
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := rt.Console().Output()
	if len(out) != 1 || out[0] != "bottling beer" {
		t.Fatalf("console output = %v, want only the winner's line", out)
	}
}

func TestWastedWorkAccounting(t *testing.T) {
	rt := simRT(t, 0)
	_, res, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "fast", Body: func(w *World) error { w.Compute(10 * time.Second); return nil }},
		Alt{Name: "slow", Body: func(w *World) error { w.Compute(100 * time.Second); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
	// Total CPU: fast did 10s, slow did 10s before being killed → 20s:
	// throughput is traded for latency (§4.1 item 3).
	total := rt.Engine().TotalCPU()
	if total != 20*time.Second {
		t.Fatalf("TotalCPU = %v, want 20s", total)
	}
}

func TestStatusesAfterBlock(t *testing.T) {
	rt := simRT(t, 0)
	// The bodies record their own PIDs: the process table indexes live
	// children only, and after the block there are none.
	var pids []ids.PID
	_, res, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "win", Body: func(w *World) error { pids = append(pids, w.PID()); w.Compute(time.Second); return nil }},
		Alt{Name: "fail", Body: func(w *World) error { pids = append(pids, w.PID()); return errors.New("nope") }},
		Alt{Name: "lose", Body: func(w *World) error { pids = append(pids, w.PID()); w.Compute(time.Hour); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	procs := rt.Procs()
	if st := procs.Status(res.Winner); st != proc.Completed {
		t.Fatalf("winner status = %v", st)
	}
	counts := map[proc.Status]int{}
	for _, pid := range pids {
		counts[procs.Status(pid)]++
	}
	if counts[proc.Completed] != 1 || counts[proc.Failed] != 1 || counts[proc.Eliminated] != 1 {
		t.Fatalf("status counts = %v", counts)
	}
	if kids := procs.Children(1); len(kids) != 0 { // root is pid 1
		t.Fatalf("root still indexes %v after the block", kids)
	}
}

func TestTimeoutTiesWithWinner(t *testing.T) {
	// The child finishes at exactly the TIMEOUT instant: the parent's
	// timeout claim must lose to the child's commit claim, and the
	// block must succeed (the claim-failed-then-report path).
	rt := simRT(t, 0)
	root, res, err := runBlock(t, rt, 1024, Options{Timeout: 5 * time.Second},
		Alt{Name: "photo-finish", Body: func(w *World) error {
			w.Compute(5 * time.Second)
			return w.WriteAt([]byte("made it"), 0)
		}},
	)
	if err != nil {
		t.Fatalf("err = %v; child committing at the deadline must win", err)
	}
	if res.Name != "photo-finish" {
		t.Fatalf("winner = %q", res.Name)
	}
	buf := make([]byte, 7)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "made it" {
		t.Fatalf("state = %q", buf)
	}
}

func TestManyAlternativesScale(t *testing.T) {
	// A wide block: 64 alternatives, distinct durations, exactly one
	// winner, all others eliminated, at-most-once preserved.
	rt := simRT(t, 0)
	const n = 64
	alts := make([]Alt, n)
	var pids []ids.PID // recorded by the bodies: terminated children are in no index
	for i := range alts {
		d := time.Duration(n-i) * time.Second // last alternative fastest
		alts[i] = Alt{Body: func(w *World) error {
			pids = append(pids, w.PID())
			w.Compute(d)
			return nil
		}}
	}
	_, res, err := runBlock(t, rt, 1024, Options{SyncElimination: true}, alts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != n-1 {
		t.Fatalf("winner = %d, want %d", res.Index, n-1)
	}
	if res.Elapsed != time.Second {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
	if live := rt.Procs().Live(); live != 0 {
		t.Fatalf("live processes after the run = %d, want 0 (no leaks)", live)
	}
	// Exactly one child completed; the rest were eliminated.
	completed, eliminated := 0, 0
	for _, pid := range pids {
		switch rt.Procs().Status(pid) {
		case proc.Completed:
			completed++
		case proc.Eliminated:
			eliminated++
		}
	}
	if len(pids) != n || completed != 1 || eliminated != n-1 {
		t.Fatalf("of %d children %d completed and %d were eliminated, want 1 and %d", len(pids), completed, eliminated, n-1)
	}
}

func TestRealComputeIsCancelAware(t *testing.T) {
	rt := New(Config{PageSize: 64})
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = root.RunAlt(Options{},
		Alt{Name: "fast", Body: func(w *World) error { return nil }},
		Alt{Name: "computer", Body: func(w *World) error {
			w.Compute(30 * time.Second) // must be cut short by the kill
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rt.Wait() // returns promptly only if Compute honoured cancellation
	if time.Since(start) > 10*time.Second {
		t.Fatal("real-mode Compute ignored cancellation")
	}
}

func TestCascadeKillsInFlightNestedBlock(t *testing.T) {
	// While alternative A waits on its own nested block, sibling B
	// wins the outer race: A must be eliminated and its in-flight
	// grandchildren cascade-killed — no leaked processes, no deadlock.
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		res, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "A-nested", Body: func(cw *World) error {
				_, err := cw.RunAlt(Options{},
					Alt{Name: "grandchild-1", Body: func(g *World) error {
						g.Compute(time.Hour)
						return nil
					}},
					Alt{Name: "grandchild-2", Body: func(g *World) error {
						g.Compute(2 * time.Hour)
						return nil
					}},
				)
				return err
			}},
			Alt{Name: "B-fast", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("outer block: %v", err)
			return
		}
		if res.Name != "B-fast" {
			t.Errorf("winner = %q", res.Name)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Virtual time must not have waited out the grandchildren.
	if got := rt.Engine().Now().Sub(time.Unix(0, 0).UTC()); got > time.Minute {
		t.Fatalf("cascade failed; simulation ran to %v", got)
	}
	if live := rt.Procs().Live(); live != 0 {
		t.Fatalf("leaked %d live processes", live)
	}
}

func TestPreCheckGuardSkipsClosedAlternatives(t *testing.T) {
	rt := simRT(t, 0)
	spawnedBodies := 0
	_, res, err := runBlock(t, rt, 1024, Options{PreCheckGuard: true, SyncElimination: true},
		Alt{
			Name:  "closed",
			Body:  func(w *World) error { spawnedBodies++; return nil },
			Guard: func(w *World) (bool, error) { return false, nil },
		},
		Alt{
			Name:  "open",
			Body:  func(w *World) error { spawnedBodies++; w.Compute(time.Second); return nil },
			Guard: func(w *World) (bool, error) { return true, nil },
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "open" || res.Index != 1 {
		t.Fatalf("winner = %q (index %d)", res.Name, res.Index)
	}
	if spawnedBodies != 1 {
		t.Fatalf("bodies run = %d; closed alternative must never spawn", spawnedBodies)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (the pre-closed guard)", res.Failures)
	}
}

func TestPreCheckGuardAllClosed(t *testing.T) {
	rt := simRT(t, 0)
	closed := Alt{
		Body:  func(w *World) error { return nil },
		Guard: func(w *World) (bool, error) { return false, nil },
	}
	_, _, err := runBlock(t, rt, 1024, Options{PreCheckGuard: true}, closed, closed)
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestPreCheckGuardReadsParentState(t *testing.T) {
	// The pre-spawn guard sees the parent's current state — the "check
	// against current conditions before spawning" placement.
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		if err := w.WriteUint64(0, 7); err != nil {
			t.Error(err)
			return
		}
		res, err := w.RunAlt(Options{PreCheckGuard: true},
			Alt{Name: "needs-7", Body: func(cw *World) error { return nil },
				Guard: func(g *World) (bool, error) {
					v, err := g.ReadUint64(0)
					return v == 7, err
				}},
			Alt{Name: "needs-9", Body: func(cw *World) error { return nil },
				Guard: func(g *World) (bool, error) {
					v, err := g.ReadUint64(0)
					return v == 9, err
				}},
		)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Name != "needs-7" {
			t.Errorf("winner = %q", res.Name)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
