package consensus_test

import (
	"testing"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/transport"
	"altrun/internal/transport/transporttest"
)

// Epoch-fenced reconfiguration tests: the quorum-intersection safety
// argument only holds when both majorities are drawn from the same
// member list, so a coalescer round built under an old epoch must die
// — either at a fenced voter (Stale reply) or at the coalescer itself
// when the new view arrives — and its claims must retry under the new
// quorum.

// fastCfg keeps retry/backoff short enough that a claim that must
// exhaust its attempts does so in well under a second of real time.
func fastCfg() consensus.Config {
	return consensus.Config{
		ReplyTimeout: 50 * time.Millisecond,
		BackoffBase:  10 * time.Millisecond,
		MaxAttempts:  3,
	}
}

func TestSetViewRecomputesQuorum(t *testing.T) {
	transporttest.Each(t, 5, 19, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/reconfig-quorum/vote"
		voters := startVoters(f, port)
		// Born with a 3-node view (quorum 2), grown to 5 (quorum 3).
		co := consensus.StartCoalescer(f.Eps()[0], []ids.NodeID{1, 2, 3}, port, fastCfg())
		if q := co.Quorum(); q != 2 {
			t.Errorf("initial quorum %d, want 2", q)
		}
		co.SetView(2, memberIDs(f))
		var res consensus.Result
		f.Go("driver", func(p transport.Proc) {
			start := f.Eps()[0].Now()
			for co.Epoch() != 2 {
				if f.Eps()[0].Now().Sub(start) > 5*time.Second {
					t.Error("view update never applied")
					break
				}
				p.Sleep(5 * time.Millisecond)
			}
			if q := co.Quorum(); q != 3 {
				t.Errorf("quorum %d after growth to 5 members, want 3", q)
			}
			// A stale view must be ignored.
			co.SetView(1, []ids.NodeID{1})
			p.Sleep(50 * time.Millisecond)
			if e, q := co.Epoch(), co.Quorum(); e != 2 || q != 3 {
				t.Errorf("stale SetView applied: epoch=%d quorum=%d, want 2/3", e, q)
			}
			res = co.Claim(p, "k", ids.PID(7))
			stopAll([]*consensus.Coalescer{co}, voters)
		})
		f.Run(t)
		if !res.Won {
			t.Fatalf("claim under the grown view lost: %+v", res)
		}
	})
}

// A voter fenced at a higher epoch answers Stale, and the coalescer
// must treat the round as unusable: with no matching SetView the claim
// exhausts its attempts and loses; after SetView it wins.
func TestStaleVoterRejectsOldEpochRounds(t *testing.T) {
	transporttest.Each(t, 3, 19, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/reconfig-stale/vote"
		voters := startVoters(f, port)
		for _, v := range voters {
			v.SetEpoch(5)
		}
		if e := voters[0].Epoch(); e != 5 {
			t.Fatalf("voter epoch %d, want 5", e)
		}
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, fastCfg())
		var behind, after consensus.Result
		f.Go("driver", func(p transport.Proc) {
			// The coalescer still believes epoch 0: every ballot it ships
			// is fenced off, so the claim must fail rather than commit
			// under a view the voters no longer honor.
			behind = co.Claim(p, "k-behind", ids.PID(7))
			co.SetView(5, memberIDs(f))
			after = co.Claim(p, "k-after", ids.PID(8))
			stopAll([]*consensus.Coalescer{co}, voters)
		})
		f.Run(t)
		if behind.Won {
			t.Error("claim won though every voter fenced the coalescer's epoch")
		}
		if !after.Won {
			t.Errorf("claim lost after the view caught up: %+v", after)
		}
	})
}

// SetView must abandon in-flight rounds built under the old epoch and
// retry their claims against the new member set: a round stuck on two
// unreachable voters of a 3-node view completes once the view grows to
// 5 and a majority is reachable again. Followers parked on the stranded
// claim's key stay parked across the view change and are answered from
// the retried round.
func TestSetViewAbandonsStrandedRounds(t *testing.T) {
	transporttest.Each(t, 5, 19, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/reconfig-abandon/vote"
		voters := startVoters(f, port)
		cfg := fastCfg()
		cfg.MaxAttempts = 8 // room to retry across the reconfiguration
		co := consensus.StartCoalescer(f.Eps()[0], []ids.NodeID{1, 2, 3}, port, cfg)
		f.T.Partition(1, 2)
		f.T.Partition(1, 3)
		cos := []*consensus.Coalescer{co, co, co}
		pids := []ids.PID{7, 8, 9}
		results, _ := raceClaims(f, "stranded", cos, pids, func() { stopAll(cos[:1], voters) })
		f.Go("reconfig", func(p transport.Proc) {
			// Let the first round go out against the unreachable quorum,
			// then grow the view: nodes 1, 4, 5 are a majority of 5.
			p.Sleep(100 * time.Millisecond)
			co.SetView(2, memberIDs(f))
		})
		f.Run(t)
		requireOneWinner(t, results, pids)
	})
}
