package core

import (
	"errors"
	"testing"
	"time"

	"altrun/internal/cluster"
	"altrun/internal/consensus"
	"altrun/internal/sim"
)

// Distributed commit: wire an alternative block's Claim to a majority-
// consensus group running on the same simulation engine (§3.2.1: "the
// synchronization is set up as a majority consensus decision across
// several nodes").

// consensusClaim adapts a consensus group to core.ClaimFunc. Each
// claiming world runs the blocking protocol on its own simulated
// process; the parent's timeout-claim path also works because the root
// world has a SimProc too.
func consensusClaim(g *consensus.Group, node *cluster.Node) ClaimFunc {
	return func(w *World) bool {
		p := w.SimProc()
		if p == nil {
			return false
		}
		return g.Claim(p, node, w.PID()).Won
	}
}

func newConsensusFixture(t *testing.T, nNodes int) (*Runtime, *cluster.Cluster, *consensus.Group) {
	t.Helper()
	rt := NewSim(SimConfig{Profile: zeroProfile(0)})
	c := cluster.New(rt.Engine(), 5)
	var nodes []*cluster.Node
	for i := 0; i < nNodes; i++ {
		nodes = append(nodes, c.AddNode(sim.ProfileHP9000()))
	}
	g := consensus.NewGroup("block", c.Endpoints(), consensus.Config{
		ReplyTimeout: 100 * time.Millisecond,
		MaxAttempts:  4,
	})
	return rt, c, g
}

func TestConsensusCommittedBlock(t *testing.T) {
	rt, c, g := newConsensusFixture(t, 3)
	node := c.Nodes()[0]
	root := rt.GoRoot("root", 1024, func(w *World) {
		res, err := w.RunAlt(Options{Claim: consensusClaim(g, node), SyncElimination: true},
			Alt{Name: "fast", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return cw.WriteAt([]byte("fast"), 0)
			}},
			Alt{Name: "slow", Body: func(cw *World) error {
				cw.Compute(time.Hour)
				return cw.WriteAt([]byte("slow"), 0)
			}},
		)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		if res.Name != "fast" {
			t.Errorf("winner = %q", res.Name)
		}
		g.Shutdown()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := root.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "fast" {
		t.Fatalf("state = %q", buf)
	}
	if winner, ok := g.Winner(); !ok || !winner.IsValid() {
		t.Fatalf("consensus group must know the winner, got %v %v", winner, ok)
	}
}

func TestConsensusBlockSurvivesMinorityCrash(t *testing.T) {
	rt, c, g := newConsensusFixture(t, 5)
	node := c.Nodes()[1]
	rt.GoRoot("root", 1024, func(w *World) {
		g.CrashVoter(0)
		g.CrashVoter(1)
		w.Sleep(time.Millisecond)
		res, err := w.RunAlt(Options{Claim: consensusClaim(g, node), SyncElimination: true},
			Alt{Name: "only", Body: func(cw *World) error {
				cw.Compute(time.Second)
				return nil
			}},
		)
		if err != nil {
			t.Errorf("block with minority crash: %v", err)
		}
		if res.Winner == 0 {
			t.Error("no winner recorded")
		}
		g.Shutdown()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusBlockMajorityCrashTimesOut(t *testing.T) {
	rt, c, g := newConsensusFixture(t, 5)
	node := c.Nodes()[3]
	rt.GoRoot("root", 1024, func(w *World) {
		for i := 0; i < 3; i++ {
			g.CrashVoter(i)
		}
		w.Sleep(time.Millisecond)
		// No claim can win; the block must FAIL by timeout, not hang
		// and not double-commit.
		_, err := w.RunAlt(Options{
			Claim:           consensusClaim(g, node),
			Timeout:         30 * time.Second,
			SyncElimination: true,
		},
			Alt{Name: "a", Body: func(cw *World) error { cw.Compute(time.Second); return nil }},
		)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		g.Shutdown()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusContendedBlockSingleWinner(t *testing.T) {
	// Several near-simultaneous finishers claiming through the quorum:
	// exactly one commits, the rest are told "too late".
	rt, c, g := newConsensusFixture(t, 3)
	node := c.Nodes()[0]
	rt.GoRoot("root", 1024, func(w *World) {
		alts := make([]Alt, 4)
		for i := range alts {
			v := uint64(i + 1)
			alts[i] = Alt{Name: "racer", Body: func(cw *World) error {
				cw.Compute(time.Second) // all finish together
				return cw.WriteUint64(0, v)
			}}
		}
		res, err := w.RunAlt(Options{Claim: consensusClaim(g, node), SyncElimination: true}, alts...)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		// The committed state matches the declared winner.
		v, err := w.ReadUint64(0)
		if err != nil || v != uint64(res.Index+1) {
			t.Errorf("state %d does not match winner index %d (err %v)", v, res.Index, err)
		}
		g.Shutdown()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
