package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Tests for root-world cancellation: Cancel on a root aborts its
// in-flight alternative block (abandonBlock) and tears down the whole
// speculative subtree, winner races included.

func TestRealRootCancelAbandonsBlock(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 2)
	spin := func(name string) Alt {
		return Alt{Name: name, Body: func(w *World) error {
			started <- struct{}{}
			for !w.Cancelled() {
				time.Sleep(time.Millisecond)
			}
			return errors.New("cancelled")
		}}
	}
	go func() {
		<-started
		<-started
		root.Cancel()
	}()
	_, err = root.RunAlt(Options{}, spin("s1"), spin("s2"))
	if !errors.Is(err, ErrEliminated) {
		t.Fatalf("abandoned block err = %v, want ErrEliminated", err)
	}
	rt.Wait()
	if n := rt.LiveWorlds(); n != 1 {
		t.Fatalf("LiveWorlds after abandon = %d, want 1 (the root)", n)
	}
	rt.Shutdown(root)
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("LiveWorlds after shutdown = %d, want 0", n)
	}
}

func TestRealRootCancelBeforeBlock(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	root.Cancel()
	_, err = root.RunAlt(Options{},
		Alt{Name: "never", Body: func(w *World) error { return nil }})
	if !errors.Is(err, ErrEliminated) {
		t.Fatalf("block on cancelled root err = %v, want ErrEliminated", err)
	}
	rt.Wait()
	rt.Shutdown(root)
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("LiveWorlds = %d, want 0", n)
	}
}

// TestRealCancelWinnerRace races Cancel against an instantly-committing
// alternative. Whatever the interleaving, no world may leak: either the
// commit wins (err == nil) or the block is abandoned (ErrEliminated),
// and in the abandon case the winner's transferred space is reclaimed.
func TestRealCancelWinnerRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		rt := New(Config{PageSize: 64})
		root, err := rt.NewRootWorld("main", 1024)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Cancel()
		}()
		_, err = root.RunAlt(Options{},
			Alt{Name: "instant", Body: func(w *World) error {
				return w.WriteAt([]byte("won"), 0)
			}},
		)
		wg.Wait()
		if err != nil && !errors.Is(err, ErrEliminated) {
			t.Fatalf("iter %d: err = %v, want nil or ErrEliminated", i, err)
		}
		rt.Wait()
		if n := rt.LiveWorlds(); n != 1 {
			t.Fatalf("iter %d: LiveWorlds = %d, want 1 (err was %v)", i, n, err)
		}
		rt.Shutdown(root)
		if n := rt.LiveWorlds(); n != 0 {
			t.Fatalf("iter %d: LiveWorlds after shutdown = %d", i, n)
		}
	}
}

// slowSetupProbe holds the parent between spawning its children and
// entering alt_wait, long enough for an instant child to claim the
// block and report first.
type slowSetupProbe struct{ *testProbe }

func (p slowSetupProbe) SetupDone(now time.Time, spawned int) {
	time.Sleep(20 * time.Millisecond)
	p.testProbe.SetupDone(now, spawned)
}

// TestCancelledRootNeverCommits: a block started on a root whose Cancel
// has already run is abandoned, even when its child wins the claim and
// reports before the parent waits for it. The parent's state must not
// absorb the child's write.
func TestCancelledRootNeverCommits(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	root.Cancel()
	probe := slowSetupProbe{newTestProbe()}
	_, err = root.RunAlt(Options{Probe: probe},
		Alt{Name: "instant", Body: func(w *World) error {
			return w.WriteAt([]byte("won"), 0)
		}})
	if !errors.Is(err, ErrEliminated) {
		t.Fatalf("block on cancelled root err = %v, want ErrEliminated", err)
	}
	if probe.committed != 0 {
		t.Fatalf("cancelled root committed child %v", probe.committed)
	}
	buf := make([]byte, 3)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) == "won" {
		t.Fatal("cancelled root absorbed the child's write")
	}
	rt.Wait()
	rt.Shutdown(root)
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("LiveWorlds = %d, want 0", n)
	}
}
