package consensus_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"
	"altrun/internal/transport/transporttest"
)

// The group-commit tests run over both fabrics via transporttest.Each,
// like the per-claim protocol tests: a voter on every node, coalescers
// where a test needs them, all on a per-test vote port so suites don't
// share voter state.

func startVoters(f *transporttest.Fabric, port string) []*consensus.Voter {
	var vs []*consensus.Voter
	for _, ep := range f.Eps() {
		vs = append(vs, consensus.StartVoter(ep, port))
	}
	return vs
}

func memberIDs(f *transporttest.Fabric) []ids.NodeID {
	var ms []ids.NodeID
	for _, ep := range f.Eps() {
		ms = append(ms, ep.ID())
	}
	return ms
}

func stopAll(cos []*consensus.Coalescer, voters []*consensus.Voter) {
	for _, co := range cos {
		co.Stop()
	}
	for _, v := range voters {
		v.Stop()
	}
}

func TestCoalescerSingleClaimWins(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-single/vote"
		voters := startVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			res = co.Claim(p, "k", ids.PID(100))
			stopAll([]*consensus.Coalescer{co}, voters)
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

// TestCoalescerBatchesConcurrentKeys is the point of the feature: many
// concurrent claims on distinct keys must all win while sharing far
// fewer quorum rounds than claims.
func TestCoalescerBatchesConcurrentKeys(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-batch/vote"
		const claims = 12
		nc := &trace.NetCounters{}
		voters := startVoters(f, port)
		// A linger long enough that all claims land in the first batch.
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{
			Net:         nc,
			BatchLinger: 50 * time.Millisecond,
		})
		var mu sync.Mutex
		won, done := 0, 0
		for i := 0; i < claims; i++ {
			i := i
			f.Go("claimant", func(p transport.Proc) {
				r := co.Claim(p, fmt.Sprintf("k%d", i), ids.PID(100+int64(i)))
				mu.Lock()
				if r.Won {
					won++
				}
				done++
				last := done == claims
				mu.Unlock()
				if last {
					stopAll([]*consensus.Coalescer{co}, voters)
				}
			})
		}
		f.Run(t)
		if won != claims {
			t.Fatalf("winners = %d, want %d (distinct keys never conflict)", won, claims)
		}
		rounds := nc.BallotRounds.Load()
		if rounds < 1 || rounds >= claims {
			t.Fatalf("ballot rounds = %d for %d claims, want coalescing (1 <= rounds < claims)", rounds, claims)
		}
		if got := nc.BallotsCoalesced.Load(); got < claims {
			t.Fatalf("ballots coalesced = %d, want >= %d", got, claims)
		}
	})
}

// TestCoalescerAtMostOneWinnerSameKey runs contending claims on ONE key
// through separate per-node coalescers: quorum intersection must admit
// exactly one winner, exactly as in the unbatched protocol.
func TestCoalescerAtMostOneWinnerSameKey(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-contend/vote"
		const claimants = 4
		voters := startVoters(f, port)
		members := memberIDs(f)
		var cos []*consensus.Coalescer
		for i := 0; i < claimants; i++ {
			cos = append(cos, consensus.StartCoalescer(f.Eps()[i], members, port, consensus.Config{}))
		}
		var mu sync.Mutex
		results := make([]consensus.Result, claimants)
		done := 0
		for i := 0; i < claimants; i++ {
			i := i
			f.Go("claimant", func(p transport.Proc) {
				r := cos[i].Claim(p, "shared-key", ids.PID(100+int64(i)))
				mu.Lock()
				results[i] = r
				done++
				last := done == claimants
				mu.Unlock()
				if last {
					stopAll(cos, voters)
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
	})
}

// TestCoalescerInteropWithClaimant mixes the batched and unbatched
// claim paths on one key: the batch is transport amortization, not a
// protocol change, so the two must arbitrate correctly against each
// other.
func TestCoalescerInteropWithClaimant(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-interop/vote"
		voters := startVoters(f, port)
		members := memberIDs(f)
		co := consensus.StartCoalescer(f.Eps()[0], members, port, consensus.Config{})
		cl := consensus.NewClaimant("shared", f.Eps()[1], members, port, consensus.Config{})
		var mu sync.Mutex
		var batched, plain consensus.Result
		done := 0
		finish := func() {
			mu.Lock()
			done++
			last := done == 2
			mu.Unlock()
			if last {
				stopAll([]*consensus.Coalescer{co}, voters)
			}
		}
		f.Go("batched", func(p transport.Proc) {
			batched = co.Claim(p, "shared", ids.PID(1))
			finish()
		})
		f.Go("plain", func(p transport.Proc) {
			plain = cl.Claim(p, ids.PID(2))
			finish()
		})
		f.Run(t)
		w1, w2 := batched.Won, plain.Won
		if w1 == w2 {
			t.Fatalf("want exactly one winner: batched=%+v plain=%+v", batched, plain)
		}
	})
}

// TestCoalescerLateClaimTooLate: a second claim on a committed key
// learns the winner from the voters' lock.
func TestCoalescerLateClaimTooLate(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-late/vote"
		voters := startVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{})
		var first, second consensus.Result
		f.Go("seq", func(p transport.Proc) {
			first = co.Claim(p, "k", ids.PID(1))
			p.Sleep(time.Second) // let commits propagate
			second = co.Claim(p, "k", ids.PID(2))
			stopAll([]*consensus.Coalescer{co}, voters)
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

// TestCoalescerVoterCrashStillCommits is the voter-crash regression on
// the batched path: with a minority of voters dead, eager per-key
// decisions mean the surviving quorum commits without waiting on the
// round deadline.
func TestCoalescerVoterCrashStillCommits(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-crash/vote"
		voters := startVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			voters[3].Stop()
			voters[4].Stop()
			p.Sleep(time.Millisecond)
			res = co.Claim(p, "k", ids.PID(9))
			stopAll([]*consensus.Coalescer{co}, voters[:3])
		})
		f.Run(t)
		if !res.Won {
			t.Fatalf("claim with 3/5 voters alive must win: %+v", res)
		}
	})
}

// TestCoalescerMajorityCrashFails: with the majority dead no batched
// claim can win, and the claim reports a clean loss (not a hang).
func TestCoalescerMajorityCrashFails(t *testing.T) {
	transporttest.Each(t, 5, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-majcrash/vote"
		voters := startVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{
			MaxAttempts:  2,
			ReplyTimeout: 50 * time.Millisecond,
		})
		var res consensus.Result
		f.Go("claimant", func(p transport.Proc) {
			for i := 1; i < 4; i++ {
				voters[i].Stop()
			}
			p.Sleep(time.Millisecond)
			res = co.Claim(p, "k", ids.PID(9))
			stopAll([]*consensus.Coalescer{co}, []*consensus.Voter{voters[0], voters[4]})
		})
		f.Run(t)
		if res.Won || res.TooLate {
			t.Fatalf("claim with majority dead must fail without winner: %+v", res)
		}
	})
}

// tapVoters starts a voter on every node behind a forwarding proc bound
// to port, which counts the BallotReleases voters are sent. The returned
// stop kills the forwarders and the voters.
func tapVoters(f *transporttest.Fabric, port string) (voters []*consensus.Voter, releases *atomic.Int64, stop func()) {
	releases = new(atomic.Int64)
	var taps []transport.Handle
	for _, ep := range f.Eps() {
		ep := ep
		behind := port + "/tapped"
		voters = append(voters, consensus.StartVoter(ep, behind))
		inbox := ep.Bind(port)
		taps = append(taps, ep.Spawn("vote-tap", func(p transport.Proc) {
			for {
				env, ok := inbox.Recv(p)
				if !ok {
					return
				}
				if _, isRelease := env.Payload.(consensus.BallotRelease); isRelease {
					releases.Add(1)
				}
				ep.Send(transport.Addr{Node: ep.ID(), Port: behind}, env.Payload)
			}
		}))
	}
	return voters, releases, func() {
		for _, h := range taps {
			h.Kill()
		}
		stopAll(nil, voters)
	}
}

// raceClaims runs one Claim per (coalescer, pid) pair concurrently and
// calls done once all have returned. elapsed[i] is how long claim i
// blocked, on the fabric's clock.
func raceClaims(f *transporttest.Fabric, key string, cos []*consensus.Coalescer, pids []ids.PID, done func()) (results []consensus.Result, elapsed []time.Duration) {
	results = make([]consensus.Result, len(pids))
	elapsed = make([]time.Duration, len(pids))
	var mu sync.Mutex
	returned := 0
	for i := range pids {
		i := i
		f.Go("claimant", func(p transport.Proc) {
			clock := f.Eps()[0]
			start := clock.Now()
			r := cos[i].Claim(p, key, pids[i])
			mu.Lock()
			results[i], elapsed[i] = r, clock.Now().Sub(start)
			returned++
			last := returned == len(pids)
			mu.Unlock()
			if last {
				done()
			}
		})
	}
	return results, elapsed
}

// requireOneWinner fails the test unless exactly one of the claims won
// and every other was told it is too late and who the winner is.
func requireOneWinner(t *testing.T, results []consensus.Result, pids []ids.PID) {
	t.Helper()
	winner := ids.None
	for i, r := range results {
		if r.Won {
			if winner.IsValid() {
				t.Fatalf("two winners: %+v", results)
			}
			winner = pids[i]
		}
	}
	if !winner.IsValid() {
		t.Fatalf("no winner: %+v", results)
	}
	for i, r := range results {
		if pids[i] != winner && (!r.TooLate || r.Winner != winner) {
			t.Errorf("claim %d (pid %v) = %+v, want too late naming %v", i, pids[i], r, winner)
		}
	}
}

// TestCoalescerSingleFlightPerKey is the commit claim's price: however
// many local alternatives claim one block's key, the voters see one
// round and no release, and the losers are answered off the winner's
// round — not from a refused round of their own and the backoff after it.
func TestCoalescerSingleFlightPerKey(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-flight/vote"
		const claimants = 5
		nc := &trace.NetCounters{}
		_, releases, stopVoters := tapVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{Net: nc})
		cos := make([]*consensus.Coalescer, claimants)
		pids := make([]ids.PID, claimants)
		for i := range pids {
			cos[i], pids[i] = co, ids.PID(100+int64(i))
		}
		results, elapsed := raceClaims(f, "k", cos, pids, func() {
			co.Stop()
			stopVoters()
		})
		f.Run(t)
		requireOneWinner(t, results, pids)
		for i, d := range elapsed {
			// A refused round of the loser's own costs at least one
			// BackoffBase before the next; only virtual time is exact
			// enough to hold a claim to less.
			if f.Sim() && d >= consensus.DefaultBackoffBase {
				t.Errorf("claim %d took %v, want under one backoff (%v)", i, d, consensus.DefaultBackoffBase)
			}
		}
		if got := nc.BallotRounds.Load(); got != 1 {
			t.Errorf("ballot rounds = %d, want 1", got)
		}
		if got := nc.ClaimsFollowed.Load(); got != claimants-1 {
			t.Errorf("claims followed = %d, want %d", got, claimants-1)
		}
		if got := releases.Load(); got != 0 {
			t.Errorf("voters were sent %d releases, want none", got)
		}
	})
}

// TestCoalescerPromotesLiveFollower cuts the coalescer off from its
// quorum until the key's first claims have all given up, then heals:
// each leader that runs out of ballots hands the key to the next
// follower still waiting, a follower whose Claim already timed out is
// passed over, and the one that is left wins.
func TestCoalescerPromotesLiveFollower(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-promote/vote"
		voters := startVoters(f, port)
		// One claim's two ballots take 80+10+80 = 170 ms and its Claim
		// waits 440 ms, so of four claims made together the first three
		// lead in turn (until 170, 340, 510 ms), the third's Claim timing
		// out under it, and the fourth times out without ever leading.
		// PIDs are multiples of 16: no stagger on the backoff.
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{
			ReplyTimeout: 80 * time.Millisecond,
			BackoffBase:  10 * time.Millisecond,
			MaxAttempts:  2,
		})
		f.T.Partition(1, 2)
		f.T.Partition(1, 3)
		var mu sync.Mutex
		early := make([]consensus.Result, 4)
		returned := 0
		for i := range early {
			i := i
			f.Go("early", func(p transport.Proc) {
				p.Sleep(time.Duration(i) * 5 * time.Millisecond) // fixes the order they queue in
				r := co.Claim(p, "k", ids.PID(16*(i+1)))
				mu.Lock()
				early[i] = r
				returned++
				last := returned == len(early)
				mu.Unlock()
				if last {
					// 455 ms: the third leader's last ballot went out at
					// 430 and dies at 510. Heal in between.
					p.Sleep(30 * time.Millisecond)
					f.T.Heal(1, 2)
					f.T.Heal(1, 3)
				}
			})
		}
		var late consensus.Result
		f.Go("late", func(p transport.Proc) {
			p.Sleep(400 * time.Millisecond) // parks behind the third leader
			late = co.Claim(p, "k", ids.PID(80))
			stopAll([]*consensus.Coalescer{co}, voters)
		})
		f.Run(t)
		for i, r := range early[:2] {
			if r.Won || r.TooLate || r.Ballots != 2 {
				t.Errorf("early claim %d = %+v, want lost after 2 ballots", i, r)
			}
		}
		for i, r := range early[2:] {
			if r != (consensus.Result{}) {
				t.Errorf("early claim %d = %+v, want a timed-out Claim", i+2, r)
			}
		}
		if !late.Won {
			t.Errorf("late claim = %+v, want won: the expired follower must not lead the key", late)
		}
	})
}

// TestCoalescerFollowersAcrossNodes races one key from two nodes, each
// with several local claimants: quorum intersection still picks one
// winner, and every other claimant on either node is told who it was.
func TestCoalescerFollowersAcrossNodes(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-nodes/vote"
		const perNode = 3
		voters := startVoters(f, port)
		members := memberIDs(f)
		nodes := []*consensus.Coalescer{
			consensus.StartCoalescer(f.Eps()[0], members, port, consensus.Config{}),
			consensus.StartCoalescer(f.Eps()[1], members, port, consensus.Config{}),
		}
		var cos []*consensus.Coalescer
		var pids []ids.PID
		for n, co := range nodes {
			for i := 0; i < perNode; i++ {
				cos = append(cos, co)
				pids = append(pids, ids.PID(100*(n+1)+i))
			}
		}
		results, _ := raceClaims(f, "shared-key", cos, pids, func() { stopAll(nodes, voters) })
		f.Run(t)
		requireOneWinner(t, results, pids)
	})
}

// TestCoalescerDecidedCacheIsOnlyACache: a straggler on a decided key is
// answered from the cache without a round while the key is in it, and by
// an ordinary round — the voters' lock — once the key has been evicted.
func TestCoalescerDecidedCacheIsOnlyACache(t *testing.T) {
	transporttest.Each(t, 3, 7, func(t *testing.T, f *transporttest.Fabric) {
		const port = "consensus/coal-evict/vote"
		const drivers = 16
		nc := &trace.NetCounters{}
		voters := startVoters(f, port)
		co := consensus.StartCoalescer(f.Eps()[0], memberIDs(f), port, consensus.Config{Net: nc})
		var cached, evicted consensus.Result
		var roundsBefore, roundsCached, followedCached int64
		f.Go("driver", func(p transport.Proc) {
			if r := co.Claim(p, "k", ids.PID(1)); !r.Won {
				t.Errorf("first claim = %+v", r)
			}
			roundsBefore = nc.BallotRounds.Load()
			cached = co.Claim(p, "k", ids.PID(2))
			roundsCached, followedCached = nc.BallotRounds.Load(), nc.ClaimsFollowed.Load()
			// Decide enough other keys to push "k" out of the cache.
			var mu sync.Mutex
			filling := drivers
			for d := 0; d < drivers; d++ {
				d := d
				f.Go("filler", func(p transport.Proc) {
					for i := 0; i < consensus.DecidedCap/drivers; i++ {
						co.Claim(p, fmt.Sprintf("fill/%d/%d", d, i), ids.PID(10))
					}
					mu.Lock()
					filling--
					last := filling == 0
					mu.Unlock()
					if last {
						f.Go("straggler", func(p transport.Proc) {
							evicted = co.Claim(p, "k", ids.PID(3))
							stopAll([]*consensus.Coalescer{co}, voters)
						})
					}
				})
			}
		})
		f.Run(t)
		if !cached.TooLate || cached.Winner != ids.PID(1) || cached.Ballots != 0 {
			t.Errorf("cached straggler = %+v, want too late naming p1 after 0 ballots", cached)
		}
		if roundsCached != roundsBefore || followedCached != 1 {
			t.Errorf("cached straggler cost %d rounds and counted %d followed, want 0 and 1", roundsCached-roundsBefore, followedCached)
		}
		if !evicted.TooLate || evicted.Winner != ids.PID(1) || evicted.Ballots != 1 {
			t.Errorf("evicted straggler = %+v, want too late naming p1 after 1 ballot", evicted)
		}
		if got := nc.ClaimsFollowed.Load(); got != 1 {
			t.Errorf("claims followed = %d, want 1: the evicted key must go to the voters", got)
		}
	})
}
