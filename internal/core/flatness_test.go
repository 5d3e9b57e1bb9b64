package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/ids"
)

// A block costs what the block does. These tests hold the two halves of
// that: a block's bookkeeping is retired when its worlds end, so the
// 20 000th block on a runtime allocates what the 2 000th did (flatness),
// and an eliminated world stops at its next runtime call instead of
// working on until it polls (the trap). Counts and MemStats only — no
// wall-clock assertion.

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestCommitPathFlat runs the commit_null block of the benchmark — one
// alternative writes a word, one sleeps until eliminated, SyncElimination
// — 20 000 times on one root of a runtime holding 1 000 bystander worlds:
// the last 5 000 blocks may allocate at most 1.25 times what blocks
// 1 001-6 000 did, and less than 16 KiB each.
func TestCommitPathFlat(t *testing.T) {
	rt := New(Config{})
	for i := 0; i < 1000; i++ {
		if _, err := rt.NewRootWorld("bystander", 4096); err != nil {
			t.Fatal(err)
		}
	}
	root, err := rt.NewRootWorld("client", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	alts := []Alt{
		{Name: "write", Body: func(w *World) error { return w.WriteUint64(0, 1) }},
		{Name: "sleep", Body: func(w *World) error {
			w.Sleep(time.Minute)
			return errors.New("eliminated")
		}},
	}
	blocks, window := 20000, 5000
	if testing.Short() { // the -race -count=20 CI step
		blocks, window = 6000, 1500
	}
	marks := map[int]uint64{}
	for i := 1; i <= blocks; i++ {
		if _, err := root.RunAlt(Options{SyncElimination: true}, alts...); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		// Synchronous elimination: both children are terminal, so the
		// root's child list is gone and the next block's children start
		// a fresh one.
		if kids := rt.tab.children(root); len(kids) != 0 {
			t.Fatalf("block %d: root still indexes %v", i, kids)
		}
		switch i {
		case 1000, 1000 + window, blocks - window, blocks:
			marks[i] = totalAlloc()
		}
	}
	early := float64(marks[1000+window]-marks[1000]) / float64(window)
	late := float64(marks[blocks]-marks[blocks-window]) / float64(window)
	t.Logf("bytes per block: %.0f over blocks 1001-%d, %.0f over the last %d", early, 1000+window, late, window)
	if late > 1.25*early {
		t.Errorf("a block got dearer as the runtime aged: %.0f B over the last %d blocks, %.0f B over blocks 1001-%d",
			late, window, early, 1000+window)
	}
	if late >= 16<<10 {
		t.Errorf("a block that writes one word allocates %.0f B, want < 16 KiB", late)
	}
	if n := rt.ChildLists(); n != 0 {
		t.Errorf("%d child lists remain", n)
	}
	rt.Wait()
}

// eliminatedOps calls every trapped operation of w and reports the ones
// that did not refuse with ErrEliminated.
func eliminatedOps(w *World) (passed []string) {
	var buf [8]byte
	_, readErr := w.ReadUint64(0)
	_, altErr := w.RunAlt(Options{}, Alt{Name: "never", Body: func(*World) error { return nil }})
	for _, op := range []struct {
		name string
		err  error
	}{
		{"ReadAt", w.ReadAt(buf[:], 0)},
		{"WriteAt", w.WriteAt(buf[:], 0)},
		{"ReadUint64", readErr},
		{"WriteUint64", w.WriteUint64(0, 1)},
		{"RestoreSnapshot", w.RestoreSnapshot(buf[:])},
		{"Send", w.Send(ids.PID(1), "x")},
		{"RunAlt", altErr},
	} {
		if !errors.Is(op.err, ErrEliminated) {
			passed = append(passed, op.name)
		}
	}
	return passed
}

// TestEliminationTrapReal: a loser that writes in a loop and never polls
// Cancelled stops at the first operation it starts after its
// elimination.
func TestEliminationTrapReal(t *testing.T) {
	rt := New(Config{PageSize: 64})
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	var (
		running  = make(chan struct{})
		returned atomic.Bool // RunAlt is back: the loser has been eliminated
		loser    *World
		loserErr error
		late     int // operations begun after the elimination that succeeded
	)
	_, err = root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "win", Body: func(w *World) error {
			<-running
			return w.WriteUint64(0, 7)
		}},
		Alt{Name: "spin", Body: func(w *World) error {
			loser = w
			close(running)
			for i := uint64(0); ; i++ {
				after := returned.Load()
				if loserErr = w.WriteUint64(8, i); loserErr != nil {
					return loserErr
				}
				if after {
					late++
					return nil
				}
			}
		}},
	)
	returned.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	rt.Wait() // the loser's body has returned
	if !errors.Is(loserErr, ErrEliminated) || late != 0 {
		t.Fatalf("loser ended with %v after %d operations begun after its elimination, want ErrEliminated and 0", loserErr, late)
	}
	if ops := eliminatedOps(loser); len(ops) != 0 {
		t.Fatalf("operations of an eliminated world that did not refuse: %v", ops)
	}
	// Nothing of the loser is observable, and the root is untouched by
	// the trap.
	if v, err := root.ReadUint64(8); err != nil || v != 0 {
		t.Fatalf("root word 1 = %d, %v; want 0 (the loser's writes were never committed)", v, err)
	}
	if v, err := root.ReadUint64(0); err != nil || v != 7 {
		t.Fatalf("root word 0 = %d, %v; want the winner's 7", v, err)
	}
}

// TestEliminationTrapSim: in simulated mode a killed process is unwound
// where it parked and never runs again, so the trap changes no run — the
// loser performs exactly the operations it had time for — and a call
// through the dead world refuses all the same.
func TestEliminationTrapSim(t *testing.T) {
	rt := simRT(t, 0)
	var loser *World
	writes := 0
	_, _, err := runBlock(t, rt, 1024, Options{SyncElimination: true},
		Alt{Name: "win", Body: func(w *World) error { w.Compute(10 * time.Second); return nil }},
		Alt{Name: "spin", Body: func(w *World) error {
			loser = w
			for {
				if err := w.WriteUint64(0, 1); err != nil {
					return err
				}
				writes++
				w.Sleep(4 * time.Second)
			}
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 3 { // at t = 0, 4 and 8 s; killed at 10 s, asleep
		t.Fatalf("loser performed %d writes before the 10 s commit, want 3", writes)
	}
	if ops := eliminatedOps(loser); len(ops) != 0 {
		t.Fatalf("operations of an eliminated world that did not refuse: %v", ops)
	}
}

// TestCancelledRootStaysReadable: Cancel is not elimination. A root
// cancelled by a job deadline aborts its block but keeps its memory, so
// the job's Cleanup can still read (and a retry could still write) it.
func TestCancelledRootStaysReadable(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("job", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.WriteUint64(0, 42); err != nil {
		t.Fatal(err)
	}
	root.Cancel()
	if !root.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	_, err = root.RunAlt(Options{}, Alt{Name: "never", Body: func(*World) error { return nil }})
	if !errors.Is(err, ErrEliminated) {
		t.Fatalf("block on a cancelled root: %v, want ErrEliminated", err)
	}
	if v, err := root.ReadUint64(0); err != nil || v != 42 {
		t.Fatalf("cancelled root reads %d, %v; want 42", v, err)
	}
	if err := root.WriteUint64(8, 1); err != nil {
		t.Fatalf("cancelled root write: %v", err)
	}
	rt.Wait()
	rt.Shutdown(root)
}
