package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
)

// Real-mode tests: alternatives are goroutines against the wall clock.
// Durations are kept small; assertions avoid exact timing.

func realRT(t *testing.T) *Runtime {
	t.Helper()
	return New(Config{PageSize: 64, Trace: true})
}

func TestRealFastestWins(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := root.RunAlt(Options{},
		Alt{Name: "slow", Body: func(w *World) error {
			w.Sleep(200 * time.Millisecond)
			return w.WriteAt([]byte("slow"), 0)
		}},
		Alt{Name: "fast", Body: func(w *World) error {
			w.Sleep(10 * time.Millisecond)
			return w.WriteAt([]byte("fast"), 0)
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fast" {
		t.Fatalf("winner = %q", res.Name)
	}
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fast" {
		t.Fatalf("state = %q", buf)
	}
	rt.Wait()
}

func TestRealCancellationObserved(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	var sawCancel atomic.Bool
	_, err = root.RunAlt(Options{},
		Alt{Name: "winner", Body: func(w *World) error {
			w.Sleep(5 * time.Millisecond)
			return nil
		}},
		Alt{Name: "cooperative-loser", Body: func(w *World) error {
			for i := 0; i < 10000; i++ {
				if w.Cancelled() {
					sawCancel.Store(true)
					return errors.New("cancelled")
				}
				w.Sleep(time.Millisecond)
			}
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rt.Wait() // loser must exit via cooperative cancellation
	if !sawCancel.Load() {
		t.Fatal("loser never observed cancellation")
	}
}

func TestRealAllFailed(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	_, err = root.RunAlt(Options{},
		Alt{Name: "a", Body: func(w *World) error { return errors.New("a") }},
		Alt{Name: "b", Body: func(w *World) error { return errors.New("b") }},
	)
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("err = %v", err)
	}
	rt.Wait()
}

func TestRealTimeout(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = root.RunAlt(Options{Timeout: 30 * time.Millisecond},
		Alt{Name: "stuck", Body: func(w *World) error {
			w.Sleep(10 * time.Second) // sleep is cancel-aware
			return nil
		}},
	)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not cut the wait short")
	}
	rt.Wait()
}

func TestRealConcurrentWinnersRaceSafely(t *testing.T) {
	// Many near-simultaneous finishers: exactly one commit (at-most-once
	// under real concurrency).
	for round := 0; round < 20; round++ {
		rt := realRT(t)
		root, err := rt.NewRootWorld("main", 1024)
		if err != nil {
			t.Fatal(err)
		}
		alts := make([]Alt, 8)
		for i := range alts {
			i := i
			alts[i] = Alt{Name: "racer", Body: func(w *World) error {
				return w.WriteUint64(0, uint64(i+1))
			}}
		}
		res, err := root.RunAlt(Options{SyncElimination: true}, alts...)
		if err != nil {
			t.Fatal(err)
		}
		v, err := root.ReadUint64(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(res.Index+1) {
			t.Fatalf("state %d does not match declared winner %d", v, res.Index+1)
		}
		rt.Wait()
	}
}

func TestRealNestedBlocks(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := root.RunAlt(Options{},
		Alt{Name: "outer", Body: func(w *World) error {
			inner, err := w.RunAlt(Options{},
				Alt{Name: "x", Body: func(g *World) error {
					w.Sleep(5 * time.Millisecond)
					return g.WriteAt([]byte("inner-x"), 0)
				}},
			)
			if err != nil {
				return err
			}
			if inner.Name != "x" {
				return errors.New("wrong inner winner")
			}
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "outer" {
		t.Fatalf("winner = %q", res.Name)
	}
	buf := make([]byte, 7)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("inner-x")) {
		t.Fatalf("state = %q", buf)
	}
	rt.Wait()
}

func TestRealServerRoundTrip(t *testing.T) {
	rt := realRT(t)
	srv := rt.SpawnServer("echo", 1024, func(w *World, m msg.Message) {
		if err := w.Send(m.Sender, m.Data); err != nil {
			t.Errorf("echo: %v", err)
		}
	})
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Send(srv.PID(), "ping"); err != nil {
		t.Fatal(err)
	}
	m, ok := root.Recv(5 * time.Second)
	if !ok || m.Data != "ping" {
		t.Fatalf("reply = %+v ok=%v", m, ok)
	}
	rt.Shutdown(srv)
	rt.Wait()
}

func TestRealDeferredConsole(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 1024)
	if err != nil {
		t.Fatal(err)
	}
	_, err = root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "w", Body: func(w *World) error {
			return w.WriteConsole("committed line")
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := rt.Console().Output()
	if len(out) != 1 || out[0] != "committed line" {
		t.Fatalf("console = %v", out)
	}
	rt.Wait()
}

// liveSpecCounter is a WorldObserver that counts live speculative
// worlds, as serve's speculation gauge does.
type liveSpecCounter struct{ live atomic.Int64 }

func (c *liveSpecCounter) WorldRegistered(_ ids.PID, spec bool) {
	if spec {
		c.live.Add(1)
	}
}

func (c *liveSpecCounter) WorldUnregistered(_ ids.PID, spec bool) {
	if spec {
		c.live.Add(-1)
	}
}

// TestSyncEliminationUnregistersLosersFirst: with SyncElimination no
// loser is still registered when RunAlt returns. Both alternatives
// finish at once, so a loser often finds its claim refused and
// terminates itself while the winner commits; the commit's elimination
// then finds it already terminated, and its unregistration runs on the
// loser's own goroutine.
func TestSyncEliminationUnregistersLosersFirst(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the race needs two processors")
	}
	rt := New(Config{})
	var c liveSpecCounter
	rt.SetWorldObserver(&c)
	root, err := rt.NewRootWorld("root", 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(root)
	done := func(*World) error { return nil }
	for b := 0; b < 5000; b++ {
		if _, err := root.RunAlt(Options{SyncElimination: true},
			Alt{Name: "a", Body: done}, Alt{Name: "b", Body: done}, Alt{Name: "c", Body: done}); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if n := c.live.Load(); n != 0 {
			t.Fatalf("block %d: %d speculative worlds still registered after RunAlt returned", b, n)
		}
	}
}
