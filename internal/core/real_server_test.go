package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/msg"
)

// Real-mode multiple-worlds tests: the split machinery under genuine
// goroutine concurrency (run with -race).

// handlerErr reports a server handler's failed operation — unless its
// world was eliminated under it: a copy killed in the middle of a
// handler is refused at its next operation (ErrEliminated), by design.
func handlerErr(t *testing.T, what string, err error) {
	if !errors.Is(err, ErrEliminated) {
		t.Errorf("%s: %v", what, err)
	}
}

// realCounterServer maintains a uint64 at offset 0.
func realCounterServer(t *testing.T) Handler {
	return func(w *World, m msg.Message) {
		switch m.Data {
		case "inc":
			v, err := w.ReadUint64(0)
			if err != nil {
				handlerErr(t, "server read", err)
				return
			}
			if err := w.WriteUint64(0, v+1); err != nil {
				handlerErr(t, "server write", err)
			}
		case "get":
			v, err := w.ReadUint64(0)
			if err != nil {
				handlerErr(t, "server read", err)
				return
			}
			if err := w.Send(m.Sender, v); err != nil {
				handlerErr(t, "server reply", err)
			}
		}
	}
}

// queryUntil polls the (possibly split) server until the expected value
// arrives or the deadline passes; resolution is asynchronous in real
// mode.
func queryUntil(t *testing.T, w *World, server *World, want uint64) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := w.Send(server.PID(), "get"); err == nil {
			if m, ok := w.Recv(time.Second); ok {
				if v, isU64 := m.Data.(uint64); isU64 && v == want {
					return true
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestRealServerSplitWinnerSurvives(t *testing.T) {
	rt := realRT(t)
	srv := rt.SpawnServer("counter", 4096, realCounterServer(t))
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "sender", Body: func(cw *World) error {
			cw.Sleep(10 * time.Millisecond)
			return cw.Send(srv.PID(), "inc")
		}},
		Alt{Name: "idle", Body: func(cw *World) error {
			cw.Sleep(10 * time.Second) // cancel-aware sleep; will lose
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !queryUntil(t, root, srv, 1) {
		t.Fatal("surviving copy never showed counter=1")
	}
	// Exactly one copy should remain once resolution settles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(rt.Copies(srv.PID())) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live copies = %d, want 1", len(rt.Copies(srv.PID())))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, cw := range rt.Copies(srv.PID()) {
		rt.Shutdown(cw)
	}
	rt.Wait()
}

func TestRealServerSplitLoserDenied(t *testing.T) {
	rt := realRT(t)
	srv := rt.SpawnServer("counter", 4096, realCounterServer(t))
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Bool
	_, err = root.RunAlt(Options{SyncElimination: true},
		Alt{Name: "speculative-sender", Body: func(cw *World) error {
			if err := cw.Send(srv.PID(), "inc"); err != nil {
				return err
			}
			sent.Store(true)
			cw.Sleep(10 * time.Second) // loses
			return nil
		}},
		Alt{Name: "winner", Body: func(cw *World) error {
			for !sent.Load() {
				cw.Sleep(time.Millisecond)
			}
			cw.Sleep(20 * time.Millisecond) // let the split happen first
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !queryUntil(t, root, srv, 0) {
		t.Fatal("deny-copy never showed counter=0")
	}
	for _, cw := range rt.Copies(srv.PID()) {
		rt.Shutdown(cw)
	}
	rt.Wait()
}

func TestRealServerManySequentialClients(t *testing.T) {
	// Hammer a server with committed (non-speculative) increments from
	// the root: no splits, exact count.
	rt := realRT(t)
	srv := rt.SpawnServer("counter", 4096, realCounterServer(t))
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := root.Send(srv.PID(), "inc"); err != nil {
			t.Fatal(err)
		}
	}
	if !queryUntil(t, root, srv, n) {
		t.Fatalf("counter never reached %d", n)
	}
	if st := rt.MsgStats(); st.Splits != 0 {
		t.Fatalf("unexpected splits: %+v", st)
	}
	rt.Shutdown(srv)
	rt.Wait()
}
