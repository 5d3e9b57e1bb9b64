package core

import (
	"fmt"
	"testing"
	"time"

	"altrun/internal/cluster"
	"altrun/internal/consensus"
	"altrun/internal/device"
	"altrun/internal/msg"
	"altrun/internal/page"
	"altrun/internal/sim"
)

// TestEndToEndKitchenSink exercises every mechanism of the paper in one
// scenario: an alternative block whose alternatives
//
//   - read buffered console input (idempotent source reads, §6),
//   - update a shared paged file through private COW views (§3.1/§5.1),
//   - message a shared audit server speculatively (multiple worlds,
//     §3.4.2),
//   - defer console output until resolution (§3.4.2),
//   - write their world's space (COW, §3.3), and
//   - commit through a majority-consensus quorum (§3.2.1),
//
// and whose fastest member carries a logic fault caught by the guard.
// Afterwards every side effect must reflect exactly one surviving
// timeline.
func TestEndToEndKitchenSink(t *testing.T) {
	rt := NewSim(SimConfig{Profile: zeroProfile(0)})

	// Distributed commit substrate.
	c := cluster.New(rt.Engine(), 17)
	var nodes []*cluster.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, c.AddNode(sim.ProfileHP9000()))
	}
	group := consensus.NewGroup("e2e", c.Endpoints(), consensus.Config{
		ReplyTimeout: 100 * time.Millisecond,
		MaxAttempts:  4,
	})
	claim := func(w *World) bool {
		p := w.SimProc()
		if p == nil {
			return false
		}
		return group.Claim(p, nodes[0], w.PID()).Won
	}

	// Shared sink: a paged file store.
	fs := device.NewFileStore(page.NewStore(64))
	if err := fs.Create("ledger", 256); err != nil {
		t.Fatal(err)
	}

	// Shared audit server: counts "posted" messages in its space.
	audit := rt.SpawnServer("audit", 1024, func(w *World, m msg.Message) {
		if m.Data != "posted" {
			return
		}
		v, err := w.ReadUint64(0)
		if err != nil {
			t.Errorf("audit read: %v", err)
			return
		}
		if err := w.WriteUint64(0, v+1); err != nil {
			t.Errorf("audit write: %v", err)
		}
	})

	// Console input: the amount to post, read by every alternative.
	rt.Console().Feed("amount=42")

	views := make(map[int]*device.View)
	rt.GoRoot("root", 1024, func(w *World) {
		mkAlt := func(idx int, name string, d time.Duration, faulty bool) Alt {
			return Alt{
				Name: name,
				Body: func(cw *World) error {
					// 1. Idempotent source read.
					line, err := cw.ReadConsole(0)
					if err != nil {
						return err
					}
					if line != "amount=42" {
						return fmt.Errorf("read %q", line)
					}
					// 2. Compute.
					cw.Compute(d)
					// 3. Private view of the shared file.
					v, err := fs.View()
					if err != nil {
						return err
					}
					views[idx] = v
					payload := []byte("ledger+=42 by " + name)
					if faulty {
						payload = []byte("ledger+=99 CORRUPT")
					}
					if err := v.WriteAt("ledger", payload, 0); err != nil {
						return err
					}
					// 4. Speculative audit message (splits the server).
					if err := cw.Send(audit.PID(), "posted"); err != nil {
						return err
					}
					// 5. Deferred console output.
					if err := cw.WriteConsole(name + " posted 42"); err != nil {
						return err
					}
					// 6. World state.
					return cw.WriteAt([]byte(name), 0)
				},
				Guard: func(cw *World) (bool, error) {
					// Acceptance test: the view's ledger update must be
					// well-formed (catches the injected fault).
					buf := make([]byte, 12)
					if err := views[idx].ReadAt("ledger", buf, 0); err != nil {
						return false, err
					}
					return string(buf) == "ledger+=42 b", nil
				},
			}
		}
		res, err := w.RunAlt(Options{Claim: claim, SyncElimination: true},
			mkAlt(0, "buggy-fast", time.Second, true),
			mkAlt(1, "good-mid", 3*time.Second, false),
			mkAlt(2, "good-slow", 10*time.Second, false),
		)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		if res.Name != "good-mid" {
			t.Errorf("winner = %q, want good-mid (fastest passing guard)", res.Name)
		}
		// Publish the winner's view, discard the rest.
		for idx, v := range views {
			if idx == res.Index {
				if err := v.Commit(); err != nil {
					t.Error(err)
				}
			} else {
				v.Discard()
			}
		}
		w.Sleep(time.Minute) // let world resolution settle

		// Audit: exactly the winner's message survived.
		if err := w.Send(audit.PID(), "posted-query"); err == nil {
			// Query via direct copy inspection instead of a reply
			// protocol: exactly one live copy with counter 1.
			copies := rt.Copies(audit.PID())
			if len(copies) != 1 {
				t.Errorf("audit copies = %d, want 1", len(copies))
			} else {
				v, err := copies[0].ReadUint64(0)
				if err != nil || v != 1 {
					t.Errorf("audit counter = %d (%v), want 1", v, err)
				}
			}
		}
		for _, cw := range rt.Copies(audit.PID()) {
			rt.Shutdown(cw)
		}
		group.Shutdown()

		// World state: the winner's bytes.
		buf := make([]byte, 8)
		if err := w.ReadAt(buf, 0); err != nil {
			t.Error(err)
		} else if string(buf) != "good-mid" {
			t.Errorf("state = %q", buf)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// Committed file contents: the winner's update only.
	buf := make([]byte, 20)
	if err := fs.ReadAt("ledger", buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf[:20]) != "ledger+=42 by good-m" {
		t.Fatalf("ledger = %q", buf)
	}
	// Console: one input consumed once despite three readers; exactly
	// the winner's deferred line emitted.
	if rt.Console().ReadsConsumed() != 1 {
		t.Fatalf("console reads consumed = %d", rt.Console().ReadsConsumed())
	}
	out := rt.Console().Output()
	if len(out) != 1 || out[0] != "good-mid posted 42" {
		t.Fatalf("console output = %v", out)
	}
	// Consensus: the quorum knows exactly one winner.
	if _, ok := group.Winner(); !ok {
		t.Fatal("consensus group must have a winner")
	}
	// No leaked processes.
	if live := rt.tab.live(); live != 0 {
		t.Fatalf("leaked %d live processes", live)
	}
}
