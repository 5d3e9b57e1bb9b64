package consensus_test

import (
	"sync"
	"testing"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/transport"
	"altrun/internal/transport/transporttest"
)

// The protocol tests run over both fabrics (sim + real TCP loopback)
// via transporttest.Each: same voter and claimant code, different
// wire. Wall-clock-sensitive knobs (drop rates) are gated on
// f.Sim() where the fabrics' loss models differ.

func TestSingleClaimWins(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			res = g.Claim(p, f.Eps()[0], ids.PID(100))
			g.Shutdown()
		})
		f.Run(t)
		if !res.Won || res.TooLate {
			t.Fatalf("result = %+v", res)
		}
		if res.Ballots != 1 {
			t.Fatalf("ballots = %d, want 1", res.Ballots)
		}
	})
}

func TestAtMostOneWinnerConcurrent(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
		eps := f.Eps()
		var mu sync.Mutex
		results := make([]consensus.Result, 4)
		done := 0
		for i := 0; i < 4; i++ {
			i := i
			f.Go("claimant", func(p transport.Proc) {
				r := g.Claim(p, eps[i], ids.PID(100+int64(i)))
				mu.Lock()
				results[i] = r
				done++
				last := done == 4
				mu.Unlock()
				if last {
					g.Shutdown()
				}
			})
		}
		f.Run(t)
		winners := 0
		for _, r := range results {
			if r.Won {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("winners = %d (results %+v), want exactly 1", winners, results)
		}
		if _, ok := g.Winner(); !ok {
			t.Fatal("group must know the winner")
		}
	})
}

func TestLateClaimTooLate(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
		eps := f.Eps()
		var first, second consensus.Result
		f.Go("seq", func(p transport.Proc) {
			first = g.Claim(p, eps[0], ids.PID(1))
			p.Sleep(time.Second) // let announces propagate
			second = g.Claim(p, eps[1], ids.PID(2))
			g.Shutdown()
		})
		f.Run(t)
		if !first.Won {
			t.Fatalf("first = %+v", first)
		}
		if second.Won || !second.TooLate || second.Winner != ids.PID(1) {
			t.Fatalf("second = %+v, want too-late with winner p1", second)
		}
	})
}

func TestMinorityVoterCrashStillCommits(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			g.CrashVoter(0)
			g.CrashVoter(1)
			p.Sleep(time.Millisecond)
			res = g.Claim(p, f.Eps()[2], ids.PID(9))
			g.Shutdown()
		})
		f.Run(t)
		if !res.Won {
			t.Fatalf("claim with 3/5 voters alive must win: %+v", res)
		}
	})
}

func TestMajorityCrashBlocksCommit(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(),
			consensus.Config{MaxAttempts: 2, ReplyTimeout: 50 * time.Millisecond})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			for i := 0; i < 3; i++ {
				g.CrashVoter(i)
			}
			p.Sleep(time.Millisecond)
			res = g.Claim(p, f.Eps()[3], ids.PID(9))
			g.Shutdown()
		})
		f.Run(t)
		if res.Won || res.TooLate {
			t.Fatalf("claim with majority dead must fail without winner: %+v", res)
		}
	})
}

func TestPartitionedClaimantCannotWin(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(),
			consensus.Config{MaxAttempts: 2, ReplyTimeout: 50 * time.Millisecond})
		eps := f.Eps()
		var mu sync.Mutex
		var cut, healthy consensus.Result
		done := 0
		finish := func() {
			mu.Lock()
			done++
			last := done == 2
			mu.Unlock()
			if last {
				g.Shutdown()
			}
		}
		f.Go("cut-claimant", func(p transport.Proc) {
			f.T.Isolate(eps[0].ID())
			cut = g.Claim(p, eps[0], ids.PID(1))
			finish()
		})
		f.Go("healthy-claimant", func(p transport.Proc) {
			p.Sleep(10 * time.Millisecond)
			healthy = g.Claim(p, eps[1], ids.PID(2))
			finish()
		})
		f.Run(t)
		// The isolated claimant can still reach its own node's voter (local
		// delivery), but that is 1 < quorum 2.
		if cut.Won {
			t.Fatalf("isolated claimant must not win: %+v", cut)
		}
		if !healthy.Won {
			t.Fatalf("healthy claimant must win: %+v", healthy)
		}
	})
}

func TestMessageLossEventuallyCommits(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		g := consensus.NewGroup("test", f.Eps(),
			consensus.Config{ReplyTimeout: 100 * time.Millisecond, MaxAttempts: 10})
		rate := 0.25
		if !f.Sim() {
			// TCP drop injection applies at both the sender's and the
			// receiver's edge, roughly squaring the per-message survival;
			// use a lower rate so 10 attempts stay overwhelmingly enough.
			rate = 0.1
		}
		f.T.SetDropRate(rate)
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			res = g.Claim(p, f.Eps()[0], ids.PID(3))
			g.Shutdown()
		})
		f.Run(t)
		if !res.Won {
			t.Fatalf("claim under message loss should eventually win: %+v", res)
		}
	})
}

func TestContendersEventuallyResolve(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		// Many contenders on a small quorum: releases + staggered backoff
		// must converge to exactly one winner, and every loser must learn
		// who it is.
		g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
		eps := f.Eps()
		const claimants = 6
		pids := make([]ids.PID, claimants)
		results := make([]consensus.Result, claimants)
		var mu sync.Mutex
		done := 0
		for i := 0; i < claimants; i++ {
			i := i
			pids[i] = ids.PID(10 + int64(i))
			f.Go("claimant", func(p transport.Proc) {
				r := g.Claim(p, eps[i%3], pids[i])
				mu.Lock()
				results[i] = r
				done++
				last := done == claimants
				mu.Unlock()
				if last {
					g.Shutdown()
				}
			})
		}
		f.Run(t)
		requireOneWinner(t, results, pids)
		// Claims on one node share its coalescer's round on the key, so
		// only each node's first claim runs ballots of its own.
		if g.Ballots() < len(eps) {
			t.Fatalf("ballots = %d, want at least one per claiming node (%d)", g.Ballots(), len(eps))
		}
	})
}

func TestQuorumSize(t *testing.T) {
	for _, tt := range []struct{ n, want int }{{1, 1}, {3, 2}, {5, 3}, {7, 4}} {
		transporttest.Each(t, tt.n, 7, func(t *testing.T, f *transporttest.Fabric) {
			g := consensus.NewGroup("test", f.Eps(), consensus.Config{})
			defer g.Shutdown()
			if g.Quorum() != tt.want {
				t.Errorf("quorum(%d) = %d, want %d", tt.n, g.Quorum(), tt.want)
			}
		})
	}
}
