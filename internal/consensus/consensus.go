// Package consensus implements the paper's fault-tolerant
// synchronization: "in applications where this might create a single
// point of failure, the synchronization is set up as a majority
// consensus [Thomas 1979] decision across several nodes" (§3.2.1),
// yielding "a fault-tolerant 0-1 semaphore for use in synchronization"
// (§5.1.2).
//
// Protocol: one voter process per node and one Coalescer per claiming
// node. A claim enters its node's coalescer, which ships it to every
// voter inside a BallotReq round (one round may carry many keys). Each
// voter grants a key to at most one claimant at a time. A claim whose
// key assembles a majority of grants commits, and the coalescer
// broadcasts a BallotCommit; one that cannot releases its votes with a
// BallotRelease, backs off (staggered deterministically by PID), and
// retries until MaxAttempts ballots are spent. Voters that have seen a
// commit answer every later round with the winner's identity, which is
// how a late claim learns it is "too late". Every round carries the
// membership epoch it was built under, and a voter whose view is newer
// refuses the whole round (see Voter.SetEpoch).
//
// Safety: a voter grants a key to one claimant at a time and locks it
// permanently once a commit is announced to it; two majorities of one
// member list intersect, so two claimants can never both assemble one.
// Liveness under partition is sacrificed deliberately: if no claimant
// can reach a majority the block times out and fails — "the
// engineering tradeoff here is between performance and reliability"
// (§3.2.1).
//
// The package is written against transport.Endpoint only, so the same
// voter and coalescer code runs on the deterministic simulated cluster
// (experiments, E10) and on the real TCP transport (altserved peer
// groups). Semaphores are named: a Voter multiplexes any number of
// independent keys on one port, so a daemon runs one voter and one
// coalescer for all its jobs, while a Group bundles per-node voters and
// coalescers plus a single key for the one-shot blocks the experiments
// race.
package consensus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// Wire registration for every consensus message type — gob fallback and
// the hand-rolled binary codec alike — lives in internal/transport/codec
// so the sim and TCP fabrics share one registration point.

// Config tunes the claim protocol.
type Config struct {
	// ReplyTimeout bounds waiting for each ballot's replies.
	ReplyTimeout time.Duration
	// BackoffBase is the unit of the deterministic retry stagger.
	BackoffBase time.Duration
	// MaxAttempts bounds ballots per claim; 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Net, when set, receives one RTT observation per vote reply
	// (ballot send → reply receipt), feeding /metrics quantiles.
	Net *trace.NetCounters
}

// Defaults used when Config fields are zero.
const (
	DefaultReplyTimeout = 200 * time.Millisecond
	DefaultBackoffBase  = 50 * time.Millisecond
	DefaultMaxAttempts  = 8
)

func (c Config) withDefaults() Config {
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = DefaultReplyTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	return c
}

// DefaultVotePort is the well-known port a daemon's voter binds.
const DefaultVotePort = "consensus/vote"

// keyState is a voter's per-semaphore state. Decided keys are retained
// forever: keys are never reused (altserved derives them from unique
// job IDs), and a voter must keep answering "too late" to stragglers.
type keyState struct {
	granted ids.PID
	winner  ids.PID
}

// Voter is one node's voting service: a single process answering vote
// traffic for any number of keyed semaphores on one port.
type Voter struct {
	ep     transport.Endpoint
	port   string
	handle transport.Handle

	// epoch fences ballot rounds during membership reconfiguration: a
	// BallotReq stamped with an older epoch is answered Stale so the
	// coalescer retries it under the current view's quorum size. The
	// per-key grant rule itself is epoch-independent (safety never
	// depended on the view); the fence keeps every round's majority
	// drawn from one member list.
	epoch atomic.Int64

	mu   sync.Mutex
	keys map[string]*keyState
}

// SetEpoch raises the voter's membership epoch (monotonic: lower
// values are ignored). Called from the membership agent's OnView.
func (v *Voter) SetEpoch(e int64) {
	for {
		cur := v.epoch.Load()
		if e <= cur || v.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the voter's current membership epoch.
func (v *Voter) Epoch() int64 { return v.epoch.Load() }

// StartVoter binds port on ep and spawns the voter process. port ""
// means DefaultVotePort.
func StartVoter(ep transport.Endpoint, port string) *Voter {
	if port == "" {
		port = DefaultVotePort
	}
	v := &Voter{ep: ep, port: port, keys: make(map[string]*keyState)}
	inbox := ep.Bind(port)
	v.handle = ep.Spawn(fmt.Sprintf("voter-%v", ep.ID()), func(p transport.Proc) {
		v.run(p, inbox)
	})
	return v
}

// Stop kills the voter process. The port stays bound, so late messages
// queue unanswered — exactly how a crashed node looks to claimants.
func (v *Voter) Stop() { v.handle.Kill() }

// Winner returns the committed PID for key, if this voter has seen the
// commit announcement.
func (v *Voter) Winner(key string) (ids.PID, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if st, ok := v.keys[key]; ok && st.winner.IsValid() {
		return st.winner, true
	}
	return ids.None, false
}

func (v *Voter) state(key string) *keyState {
	st, ok := v.keys[key]
	if !ok {
		st = &keyState{}
		v.keys[key] = st
	}
	return st
}

// run is the voter main loop.
func (v *Voter) run(p transport.Proc, inbox transport.Mailbox) {
	for {
		env, ok := inbox.Recv(p)
		if !ok {
			return
		}
		switch m := env.Payload.(type) {
		case BallotReq:
			// One message, many keys, each decided by the same per-key
			// grant rule: batching changes the framing, never the
			// semantics.
			if e := v.epoch.Load(); m.Epoch < e {
				// Epoch fence: this round predates the current
				// membership view. Grant nothing — the coalescer fails
				// the round and retries under the new quorum.
				v.ep.Send(m.Reply, BallotReply{
					Round: m.Round, Voter: v.ep.ID(), Epoch: e, Stale: true,
				})
				continue
			}
			reply := BallotReply{
				Round: m.Round,
				Voter: v.ep.ID(),
				Epoch: m.Epoch,
				Votes: make([]BallotVote, 0, len(m.Claims)),
			}
			v.mu.Lock()
			for _, c := range m.Claims {
				st := v.state(c.Key)
				vote := BallotVote{Key: c.Key}
				switch {
				case st.winner.IsValid():
					vote.Winner = st.winner
				case !st.granted.IsValid() || st.granted == c.Claimant:
					st.granted = c.Claimant
					vote.Granted = true
				}
				reply.Votes = append(reply.Votes, vote)
			}
			v.mu.Unlock()
			v.ep.Send(m.Reply, reply)
		case BallotRelease:
			v.mu.Lock()
			for _, c := range m.Claims {
				st := v.state(c.Key)
				if st.granted == c.Claimant {
					st.granted = ids.None
				}
			}
			v.mu.Unlock()
		case BallotCommit:
			v.mu.Lock()
			for _, c := range m.Commits {
				st := v.state(c.Key)
				st.winner = c.Claimant
				st.granted = ids.None
			}
			v.mu.Unlock()
		}
	}
}

// Result is the outcome of a Claim.
type Result struct {
	// Won reports whether this claimant committed.
	Won bool
	// TooLate reports whether a different winner was already committed
	// when the claim was decided.
	TooLate bool
	// Winner is the known winner if TooLate.
	Winner ids.PID
	// Ballots is how many ballots this claim ran.
	Ballots int
}

// Group is a majority-consensus semaphore spanning a set of endpoints:
// one voter and one coalescer per endpoint plus a single key, the shape
// the experiments and the one-shot block tests use. name must be unique
// per fabric (it namespaces the ports and is the semaphore key).
type Group struct {
	name       string
	voters     []*Voter
	coalescers []*Coalescer
	quorum     int
	ballots    atomic.Int64 // total ballots run (for experiment accounting)
}

// NewGroup spawns one voter process and one coalescer on each endpoint
// and returns the group.
func NewGroup(name string, eps []transport.Endpoint, cfg Config) *Group {
	g := &Group{
		name:   name,
		quorum: len(eps)/2 + 1,
	}
	members := make([]ids.NodeID, len(eps))
	for i, ep := range eps {
		members[i] = ep.ID()
		g.voters = append(g.voters, StartVoter(ep, g.votePort()))
	}
	for _, ep := range eps {
		g.coalescers = append(g.coalescers, StartCoalescer(ep, members, g.votePort(), cfg))
	}
	return g
}

func (g *Group) votePort() string { return "consensus/" + g.name + "/vote" }

// Quorum returns the majority size.
func (g *Group) Quorum() int { return g.quorum }

// Ballots returns the total number of ballots claims have run. A claim
// answered from another local claim's round on the key ran none.
func (g *Group) Ballots() int { return int(g.ballots.Load()) }

// Winner returns the committed PID, if any voter has seen the commit.
func (g *Group) Winner() (ids.PID, bool) {
	for _, v := range g.voters {
		if pid, ok := v.Winner(g.name); ok {
			return pid, ok
		}
	}
	return ids.None, false
}

// Shutdown kills the coalescer and voter processes. Call when the group
// is no longer needed so the simulation can drain.
func (g *Group) Shutdown() {
	for _, co := range g.coalescers {
		co.Stop()
	}
	for _, v := range g.voters {
		v.Stop()
	}
}

// CrashVoter kills voter i (fault injection for E10).
func (g *Group) CrashVoter(i int) {
	if i >= 0 && i < len(g.voters) {
		g.voters[i].Stop()
	}
}

// Claim runs the claim protocol on behalf of pid through the coalescer
// on ep, which must be one of the group's endpoints, blocking the
// calling process. At most one Claim per group ever returns Won.
func (g *Group) Claim(p transport.Proc, ep transport.Endpoint, pid ids.PID) Result {
	for _, co := range g.coalescers {
		if co.ep.ID() == ep.ID() {
			res := co.Claim(p, g.name, pid)
			g.ballots.Add(int64(res.Ballots))
			return res
		}
	}
	panic(fmt.Sprintf("consensus: group %q has no endpoint %v", g.name, ep.ID()))
}
