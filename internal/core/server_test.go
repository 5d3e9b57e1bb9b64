package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"altrun/internal/ids"
	"altrun/internal/msg"
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
	var survivor ids.PID
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
		// Exactly one version should be live: the assume side.
		live := rt.Copies(srv.PID())
		if len(live) != 1 || live[0].PID() == srv.PID() {
			t.Errorf("live versions = %v, want 1 with a fresh PID", pidsOf(live))
		}
		for _, cw := range live {
			survivor = cw.PID()
			rt.Shutdown(cw)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.MsgStats(); st.Splits != 1 {
		t.Fatalf("splits = %d, want 1", st.Splits)
	}
	if n := rt.SelStats().WorldSplits; n != 1 {
		t.Fatalf("world splits = %d, want 1", n)
	}
	// The first version kept its PID on the deny side, which the
	// sender's win contradicted; the assume side, a fresh PID, survived
	// and was shut down.
	if st := rt.tab.fate(srv.PID()); st != fateEliminated {
		t.Fatalf("first version status = %v, want Eliminated (deny side)", st)
	}
	if st := rt.tab.fate(survivor); st != fateCompleted {
		t.Fatalf("assume side %v status = %v, want Completed", survivor, st)
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
	// The refused message was stamped but forked nothing.
	if st := rt.MsgStats(); st.Sent != 1 || st.Splits != 0 {
		t.Fatalf("refused send counted %+v, want 1 sent and no split", st)
	}
	checkSplitsForked(t, rt)
}

// checkSplitsForked asserts that every split the router counted forked
// a server version.
func checkSplitsForked(t *testing.T, rt *Runtime) {
	t.Helper()
	if splits, forks := rt.MsgStats().Splits, rt.SelStats().WorldSplits; int64(splits) != forks {
		t.Fatalf("MsgStats().Splits = %d, SelStats().WorldSplits = %d: a split counted without a fork", splits, forks)
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
	checkSplitsForked(t, rt)
}

func TestServerFIFOPerSender(t *testing.T) {
	// §3.1: IPC is reliable and FIFO. Messages from one sender must be
	// handled in send order — by every version, across splits: two
	// speculative senders interleave ten messages each, so the server
	// splits on the first, and the version that denies it splits again
	// on the second.
	// The handler appends each message to a log in its version's pages.
	const root, alpha, beta = 0, 1, 2
	item := func(sender, i int) uint64 { return uint64(sender)<<32 | uint64(i) }
	rt := simRT(t, 0)
	srv := rt.SpawnServer("seq", 1024, func(w *World, m msg.Message) {
		v, ok := m.Data.(uint64)
		if !ok {
			return
		}
		n, err := w.ReadUint64(0)
		if err == nil {
			err = w.WriteUint64(8*int64(n+1), v)
		}
		if err == nil {
			err = w.WriteUint64(0, n+1)
		}
		if err != nil {
			t.Errorf("server log: %v", err)
		}
	})
	var log []uint64
	rt.GoRoot("root", 64, func(w *World) {
		for i := 0; i < 20; i++ {
			if err := w.Send(srv.PID(), item(root, i)); err != nil {
				t.Error(err)
				return
			}
		}
		sender := func(tag int, after time.Duration) Alt {
			return Alt{Name: fmt.Sprint(tag), Body: func(cw *World) error {
				for i := 0; i < 10; i++ {
					if err := cw.Send(srv.PID(), item(tag, i)); err != nil {
						return err
					}
					cw.Compute(10 * time.Millisecond)
				}
				cw.Compute(after)
				return nil
			}}
		}
		res, err := w.RunAlt(Options{SyncElimination: true}, sender(alpha, 0), sender(beta, time.Hour))
		if err != nil || res.Index != 0 {
			t.Errorf("block: winner %d, %v; want alpha", res.Index, err)
			return
		}
		w.Sleep(time.Second)
		live := rt.Copies(srv.PID())
		if len(live) != 1 {
			t.Errorf("live versions = %v, want 1", pidsOf(live))
			return
		}
		n, err := live[0].ReadUint64(0)
		for k := uint64(1); err == nil && k <= n; k++ {
			var v uint64
			v, err = live[0].ReadUint64(8 * int64(k))
			log = append(log, v)
		}
		if err != nil {
			t.Error(err)
		}
		rt.Shutdown(srv)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if st := rt.MsgStats(); st.Splits != 2 {
		t.Fatalf("splits = %d, want 2 (the deny side of the first split splits again)", st.Splits)
	}
	checkSplitsForked(t, rt)
	var want []uint64
	for i := 0; i < 20; i++ {
		want = append(want, item(root, i))
	}
	for i := 0; i < 10; i++ {
		want = append(want, item(alpha, i))
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("surviving log = %x, want %x", log, want)
	}
}

// TestServerVersionsShareOneLoop: a split leaves the version that split
// on the deny side, under its PID, and adds a version with a fresh PID.
// The server PID addresses the loop for as long as the server runs —
// also after its first version is gone — a version's PID addresses it as
// well, and one send is one stamped message, decided for every version.
func TestServerVersionsShareOneLoop(t *testing.T) {
	rt := simRT(t, 0)
	var seen []ids.PID // versions whose handler took a "ping", in order
	srv := rt.SpawnServer("versions", 64, func(w *World, m msg.Message) {
		if m.Data == "ping" {
			seen = append(seen, w.PID())
		}
	})
	var fresh ids.PID
	rt.GoRoot("observer", 64, func(w *World) {
		w.Sleep(100 * time.Millisecond) // the sender has split the server
		vs := rt.Copies(srv.PID())
		if len(vs) != 2 || vs[0] != srv || vs[1].PID() == srv.PID() {
			t.Errorf("versions = %v, want the first version and one with a fresh PID", pidsOf(vs))
			return
		}
		fresh = vs[1].PID()
		if got := rt.Copies(fresh); len(got) != 2 || got[0] != vs[0] || got[1] != vs[1] {
			t.Errorf("versions through %v = %v, want %v", fresh, pidsOf(got), pidsOf(vs))
		}
		before := rt.MsgStats()
		if err := w.Send(fresh, "ping"); err != nil {
			t.Error(err)
		}
		w.Sleep(10 * time.Millisecond)
		if d := rt.MsgStats(); d.Sent-before.Sent != 1 || d.Accepted-before.Accepted != 2 {
			t.Errorf("one send to two versions: %+v then %+v, want 1 sent, 2 accepted", before, d)
		}
	})
	rt.GoRoot("root", 64, func(w *World) {
		_, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "sender", Body: func(cw *World) error {
				if err := cw.Send(srv.PID(), "x"); err != nil {
					return err
				}
				cw.Sleep(time.Second)
				return nil
			}},
		)
		if err != nil {
			t.Error(err)
			return
		}
		w.Sleep(time.Second)
		// The sender won: the first version, on the deny side, is gone,
		// and its PID still reaches the loop.
		if st := rt.tab.fate(srv.PID()); st != fateEliminated {
			t.Errorf("first version = %v, want eliminated", st)
		}
		if vs := rt.Copies(srv.PID()); len(vs) != 1 || vs[0].PID() != fresh {
			t.Errorf("versions after commit = %v, want [%v]", pidsOf(vs), fresh)
		}
		if err := w.Send(srv.PID(), "ping"); err != nil {
			t.Error(err)
		}
		w.Sleep(10 * time.Millisecond)
		rt.Shutdown(srv) // any version's world ends the whole server
		if st := rt.tab.fate(fresh); st != fateCompleted {
			t.Errorf("version %v after shutdown = %v, want completed", fresh, st)
		}
		if err := w.Send(srv.PID(), "ping"); !errors.Is(err, msg.ErrUnknownReceiver) {
			t.Errorf("send after shutdown = %v, want ErrUnknownReceiver", err)
		}
		if vs := rt.Copies(srv.PID()); len(vs) != 0 {
			t.Errorf("versions after shutdown = %v", pidsOf(vs))
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []ids.PID{srv.PID(), fresh, fresh}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("pings taken by %v, want %v", seen, want)
	}
	if n := rt.LiveWorlds(); n != 0 {
		t.Fatalf("%d worlds live at the end", n)
	}
}
