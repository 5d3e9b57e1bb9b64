package core

import (
	"errors"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
	"altrun/internal/proc"
	"altrun/internal/trace"
)

// counterServer returns a handler maintaining a uint64 counter at
// offset 0 of the server's space; "inc" increments, "get" replies with
// the current value.
func counterServer(t *testing.T) Handler {
	return func(w *World, m msg.Message) {
		switch m.Data {
		case "inc":
			v, err := w.ReadUint64(0)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if err := w.WriteUint64(0, v+1); err != nil {
				t.Errorf("server write: %v", err)
			}
		case "get":
			v, err := w.ReadUint64(0)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if err := w.Send(m.Sender, v); err != nil {
				t.Errorf("server reply: %v", err)
			}
		}
	}
}

// queryCounter asks the server (through any live copies) for its value
// from a non-speculative world.
func queryCounter(t *testing.T, w *World, server ids.PID) uint64 {
	t.Helper()
	if err := w.Send(server, "get"); err != nil {
		t.Fatalf("get: %v", err)
	}
	m, ok := w.Recv(time.Minute)
	if !ok {
		t.Fatal("no reply from server")
	}
	v, isU64 := m.Data.(uint64)
	if !isU64 {
		t.Fatalf("reply = %#v", m.Data)
	}
	return v
}

func TestServerAcceptFromResolvedSender(t *testing.T) {
	rt := simRT(t, 0)
	srv := rt.SpawnServer("counter", 1024, counterServer(t))
	rt.GoRoot("root", 64, func(w *World) {
		if err := w.Send(srv.PID(), "inc"); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		if got := queryCounter(t, w, srv.PID()); got != 1 {
			t.Errorf("counter = %d, want 1", got)
		}
		rt.Shutdown(srv)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.MsgStats()
	if st.Splits != 0 || st.Ignored != 0 {
		t.Fatalf("stats = %+v, want pure accepts", st)
	}
}

func TestServerSplitsOnSpeculativeSender(t *testing.T) {
	// An alternative (speculative) sends "inc" to the server: the
	// server must split into assume/deny copies. When the sender WINS,
	// the assume-copy (counter=1) survives and the deny-copy dies.
	rt := simRT(t, 0)
	srv := rt.SpawnServer("counter", 1024, counterServer(t))
	rt.GoRoot("root", 64, func(w *World) {
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "sender", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return cw.Send(srv.PID(), "inc")
			}},
			Alt{Name: "idle", Body: func(cw *World) error {
				cw.Compute(time.Hour)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		// Let the reaper/resolution settle, then query through aliases.
		w.Sleep(time.Second)
		if got := queryCounter(t, w, srv.PID()); got != 1 {
			t.Errorf("counter = %d, want 1 (assume-copy survived)", got)
		}
		// Exactly one copy should be live.
		live := rt.Copies(srv.PID())
		if len(live) != 1 {
			t.Errorf("live copies = %v, want 1", pidsOf(live))
		}
		for _, cw := range live {
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.MsgStats(); st.Splits != 1 {
		t.Fatalf("splits = %d, want 1", st.Splits)
	}
	if rt.Log().Count(trace.KindWorldSplit) != 1 {
		t.Fatal("expected one world-split trace event")
	}
	// Original server is Forked; one copy Completed (shutdown), one
	// Eliminated (deny-copy contradicted).
	if st := rt.Procs().Status(srv.PID()); st != proc.Forked {
		t.Fatalf("original server status = %v, want Forked", st)
	}
}

func TestServerDenyCopySurvivesWhenSenderLoses(t *testing.T) {
	rt := simRT(t, 0)
	srv := rt.SpawnServer("counter", 1024, counterServer(t))
	rt.GoRoot("root", 64, func(w *World) {
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "speculative-sender", Body: func(cw *World) error {
				// Sends early, then loses the race.
				if err := cw.Send(srv.PID(), "inc"); err != nil {
					return err
				}
				cw.Compute(time.Hour)
				return nil
			}},
			Alt{Name: "winner", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		w.Sleep(time.Second)
		// The sender was eliminated: its "inc" must not be observable.
		if got := queryCounter(t, w, srv.PID()); got != 0 {
			t.Errorf("counter = %d, want 0 (deny-copy survived)", got)
		}
		live := rt.Copies(srv.PID())
		if len(live) != 1 {
			t.Errorf("live copies = %v, want 1", pidsOf(live))
		}
		for _, cw := range live {
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerStateSharedUpToSplit(t *testing.T) {
	// Pre-split state must be visible in both copies; the split itself
	// must be COW (no page copying at fork time).
	rt := simRT(t, 0)
	srv := rt.SpawnServer("counter", 1024, counterServer(t))
	rt.GoRoot("root", 64, func(w *World) {
		// Commit two increments non-speculatively.
		for i := 0; i < 2; i++ {
			if err := w.Send(srv.PID(), "inc"); err != nil {
				t.Error(err)
				return
			}
		}
		w.Sleep(time.Second)
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "sender", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return cw.Send(srv.PID(), "inc")
			}},
			Alt{Name: "idle", Body: func(cw *World) error { cw.Compute(time.Hour); return nil }},
		)
		if err != nil {
			t.Error(err)
			return
		}
		w.Sleep(time.Second)
		if got := queryCounter(t, w, srv.PID()); got != 3 {
			t.Errorf("counter = %d, want 3 (2 committed + winner's inc)", got)
		}
		for _, cw := range rt.Copies(srv.PID()) {
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNonServerCannotSplit(t *testing.T) {
	rt := simRT(t, 0)
	var plain *World
	plain = rt.GoRoot("plain-receiver", 64, func(w *World) {
		// Park waiting for a message that never arrives (it errors at
		// the sender); exit on timeout.
		w.Recv(10 * time.Second)
	})
	rt.GoRoot("root", 64, func(w *World) {
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "sender", Body: func(cw *World) error {
				sendErr := cw.Send(plain.PID(), "hello")
				if !errors.Is(sendErr, ErrNotServer) {
					t.Errorf("send to non-server = %v, want ErrNotServer", sendErr)
				}
				return nil
			}},
		)
		if err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendToDeadWorld(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 64, func(w *World) {
		err := w.Send(ids.PID(999), "x")
		if !errors.Is(err, msg.ErrUnknownReceiver) {
			t.Errorf("err = %v", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSpeculativeSendersNestSplits(t *testing.T) {
	// Two alternatives both send "inc": the server splits on the first
	// sender, and each copy splits again on the second → up to four
	// leaves; after resolution exactly one survives, with counter = 1
	// (only the winner's inc visible).
	rt := simRT(t, 0)
	srv := rt.SpawnServer("counter", 1024, counterServer(t))
	rt.GoRoot("root", 64, func(w *World) {
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "alpha", Body: func(cw *World) error {
				if err := cw.Send(srv.PID(), "inc"); err != nil {
					return err
				}
				cw.Compute(2 * time.Second)
				return nil
			}},
			Alt{Name: "beta", Body: func(cw *World) error {
				if err := cw.Send(srv.PID(), "inc"); err != nil {
					return err
				}
				cw.Compute(10 * time.Second)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		w.Sleep(time.Minute) // let resolution settle fully
		if got := queryCounter(t, w, srv.PID()); got != 1 {
			t.Errorf("counter = %d, want 1 (winner alpha's inc only)", got)
		}
		live := rt.Copies(srv.PID())
		if len(live) != 1 {
			t.Errorf("live copies = %v, want exactly 1", pidsOf(live))
		}
		for _, cw := range live {
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.MsgStats(); st.Splits < 2 {
		t.Fatalf("splits = %d, want >= 2", st.Splits)
	}
}

func TestServerFIFOPerSender(t *testing.T) {
	// §3.1: IPC is reliable and FIFO. Messages from one sender must be
	// handled in send order.
	rt := simRT(t, 0)
	var got []int
	srv := rt.SpawnServer("seq", 1024, func(w *World, m msg.Message) {
		if v, ok := m.Data.(int); ok {
			got = append(got, v)
		}
	})
	rt.GoRoot("root", 64, func(w *World) {
		for i := 0; i < 20; i++ {
			if err := w.Send(srv.PID(), i); err != nil {
				t.Error(err)
				return
			}
		}
		w.Sleep(time.Second)
		rt.Shutdown(srv)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}
