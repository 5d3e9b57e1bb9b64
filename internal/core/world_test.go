package core

import (
	"errors"
	"testing"
	"time"

	"altrun/internal/device"
	"altrun/internal/msg"
)

func TestWorldAccessors(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 640, func(w *World) {
		if w.Name() != "root" || w.Size() != 640 || w.Runtime() != rt {
			t.Error("accessors wrong")
		}
		if w.Speculative() {
			t.Error("root world is never speculative")
		}
		if w.SimProc() == nil {
			t.Error("sim-mode world must expose its proc")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Profile() == nil || rt.Profile().Name != "zero" {
		t.Error("Profile accessor")
	}
	if rt.Now().IsZero() {
		t.Error("Now must be set")
	}
}

func TestRealModeSimProcNil(t *testing.T) {
	rt := realRT(t)
	root, err := rt.NewRootWorld("main", 64)
	if err != nil {
		t.Fatal(err)
	}
	if root.SimProc() != nil {
		t.Fatal("real-mode world must have nil SimProc")
	}
	if err := rt.Run(); err == nil {
		t.Fatal("Run must be rejected in real mode")
	}
	rt.Wait()
}

func TestGoRootInRealMode(t *testing.T) {
	rt := realRT(t)
	done := make(chan struct{})
	rt.GoRoot("detached", 64, func(w *World) {
		if err := w.WriteAt([]byte{1}, 0); err != nil {
			t.Error(err)
		}
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("detached root never ran")
	}
	rt.Wait()
}

func TestRestoreSnapshotOnWorld(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 256, func(w *World) {
		if err := w.WriteAt([]byte("before"), 0); err != nil {
			t.Error(err)
			return
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Error(err)
			return
		}
		if err := w.WriteAt([]byte("AFTER!"), 0); err != nil {
			t.Error(err)
			return
		}
		if err := w.RestoreSnapshot(snap); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 6)
		if err := w.ReadAt(buf, 0); err != nil {
			t.Error(err)
			return
		}
		if string(buf) != "before" {
			t.Errorf("restored = %q", buf)
		}
		if err := w.RestoreSnapshot([]byte("short")); err == nil {
			t.Error("wrong-size restore must fail")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleReadIdempotentAcrossSiblings(t *testing.T) {
	// Two alternatives read the same input positions: buffering must
	// give both timelines identical input, consuming each line once
	// (§6: "idempotency of some source state can be forced through
	// buffering").
	rt := simRT(t, 0)
	rt.Console().Feed("line-one", "line-two")
	reads := make(map[string][]string)
	rt.GoRoot("root", 1024, func(w *World) {
		mk := func(name string, d time.Duration) Alt {
			return Alt{Name: name, Body: func(cw *World) error {
				for i := 0; i < 2; i++ {
					line, err := cw.ReadConsole(i)
					if err != nil {
						return err
					}
					reads[name] = append(reads[name], line)
				}
				cw.Compute(d)
				return nil
			}}
		}
		if _, err := w.RunAlt(Options{SyncElimination: true},
			mk("fast", time.Second), mk("slow", time.Hour)); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fast", "slow"} {
		got := reads[name]
		if len(got) != 2 || got[0] != "line-one" || got[1] != "line-two" {
			t.Errorf("%s read %v", name, got)
		}
	}
	if rt.Console().ReadsConsumed() != 2 {
		t.Errorf("consumed = %d, want 2 (each line once, despite two readers)",
			rt.Console().ReadsConsumed())
	}
}

func TestDeferredOutputVisibleBeforeFlush(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		if _, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "a", Body: func(cw *World) error {
				if err := cw.WriteConsole("pending"); err != nil {
					return err
				}
				if out := cw.DeferredOutput(); len(out) != 1 || out[0] != "pending" {
					t.Errorf("DeferredOutput = %v", out)
				}
				return nil
			}},
		); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if out := rt.Console().Output(); len(out) != 1 || out[0] != "pending" {
		t.Fatalf("console = %v", out)
	}
}

func TestNestedDeferredOutputPropagates(t *testing.T) {
	// A nested winner's deferred line travels: grandchild → child
	// (still speculative) → root (resolved, flushed).
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		if _, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "outer", Body: func(cw *World) error {
				_, err := cw.RunAlt(Options{SyncElimination: true},
					Alt{Name: "inner", Body: func(g *World) error {
						return g.WriteConsole("deep line")
					}},
				)
				if err != nil {
					return err
				}
				// Still speculative here: must not be on the console yet.
				if len(rt.Console().Output()) != 0 {
					t.Error("speculative line leaked to the console")
				}
				return nil
			}},
		); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if out := rt.Console().Output(); len(out) != 1 || out[0] != "deep line" {
		t.Fatalf("console = %v", out)
	}
}

func TestLoserDeferredOutputDropped(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 1024, func(w *World) {
		if _, err := w.RunAlt(Options{SyncElimination: true},
			Alt{Name: "win", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return cw.WriteConsole("winner says hi")
			}},
			Alt{Name: "lose", Body: func(cw *World) error {
				if err := cw.WriteConsole("loser says hi"); err != nil {
					return err
				}
				cw.Compute(time.Hour)
				return nil
			}},
		); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	out := rt.Console().Output()
	if len(out) != 1 || out[0] != "winner says hi" {
		t.Fatalf("console = %v", out)
	}
}

func TestConsoleDirectWriteFromRoot(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 64, func(w *World) {
		if err := w.WriteConsole("immediate"); err != nil {
			t.Error(err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if out := rt.Console().Output(); len(out) != 1 || out[0] != "immediate" {
		t.Fatalf("console = %v", out)
	}
}

func TestConsoleNoInput(t *testing.T) {
	rt := simRT(t, 0)
	rt.GoRoot("root", 64, func(w *World) {
		if _, err := w.ReadConsole(0); !errors.Is(err, device.ErrNoInput) {
			t.Errorf("err = %v", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCopiesAccessor(t *testing.T) {
	rt := simRT(t, 0)
	srv := rt.SpawnServer("s", 64, func(w *World, m msg.Message) {})
	copies := rt.Copies(srv.PID())
	if len(copies) != 1 || copies[0] != srv {
		t.Fatalf("Copies = %v", copies)
	}
	rt.Shutdown(srv)
	if len(rt.Copies(srv.PID())) != 0 {
		t.Fatal("shut-down server must not be live")
	}
	rt.Shutdown(srv) // idempotent
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
