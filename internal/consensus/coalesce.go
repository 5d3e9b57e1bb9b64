package consensus

import (
	"fmt"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
	"altrun/internal/transport"
)

// Group commit. Every claim goes through its node's Coalescer, a
// per-node service that accumulates local claims and submits them as
// pipelined ballot rounds — one BallotReq carrying every key that is
// ready. Under the serve layer's load many blocks commit concurrently
// on distinct keys and share a round; a lone claim is a round of one.
// Voters answer each key independently under the per-key grant rule, so
// the batch is transport-level amortization, not a protocol change.
//
// Decisions are per-claim and eager: a claim wins the moment ITS key
// reaches quorum, not when the round completes, so a dead voter delays
// nobody who already has a majority. Claims whose key fails a round
// (vote split or no quorum before the reply timeout) release and retry
// after a deterministic PID-staggered backoff.
//
// A key is single-flight: the first local claim on it is its leader and
// the only one that ever enters a BallotReq. Later local claims on the
// key park on the leader as followers and are answered from its
// outcome, and a bounded FIFO of decided keys answers stragglers, both
// without a message to any voter. A follower is never granted anything
// a quorum did not grant the leader, and the cache only ever says what
// a quorum already decided; a miss just runs a normal round. If the
// leader runs out of ballots undecided, the next follower still waiting
// takes over as leader.
//
// Batching is self-clocking: while fewer than maxInflight rounds are
// outstanding, a flush happens as soon as claims are pending; once the
// pipeline is full, claims accumulate until a round completes — exactly
// the load level where big batches form on their own.
//
// The Coalescer is a spawned transport proc with one mailbox; intake
// (ClaimSubmit) and voter traffic (BallotReply) arrive as messages.
// Claims block in Coalescer.Claim on a per-claim reply port. Nothing
// here blocks on a Go channel, so the same code runs on the simulated
// cluster (cooperative procs) and real TCP.

// Batch message types. BallotClaim doubles as the commit entry
// (Claimant = winner).
type (
	// BallotClaim is one keyed claim inside a batch round.
	BallotClaim struct {
		Key      string
		Claimant ids.PID
	}
	// BallotReq asks a voter to vote on every claim in one round.
	// Epoch stamps the membership view the round was built under; a
	// voter whose view is newer answers Stale instead of voting.
	BallotReq struct {
		Round  int64
		Epoch  int64
		Reply  transport.Addr
		Claims []BallotClaim
	}
	// BallotVote is a voter's per-key answer inside a BallotReply.
	BallotVote struct {
		Key     string
		Granted bool
		// Winner is set when the voter knows a commit already happened.
		Winner ids.PID
	}
	// BallotReply answers a BallotReq, one vote per claim. Stale means
	// the voter rejected the whole round as epoch-fenced: its Epoch is
	// newer than the request's, no votes were granted, and the
	// coalescer should retry the claims once its own view catches up.
	BallotReply struct {
		Round int64
		Voter ids.NodeID
		Epoch int64
		Stale bool
		Votes []BallotVote
	}
	// BallotRelease returns votes for failed or too-late claims.
	BallotRelease struct {
		Claims []BallotClaim
	}
	// BallotCommit locks each key on its winner (Claimant = winner).
	BallotCommit struct {
		Commits []BallotClaim
	}
	// ClaimSubmit enters a claim into the local coalescer (same-node
	// message from Coalescer.Claim to the coalescer proc).
	ClaimSubmit struct {
		Key      string
		Claimant ids.PID
		Reply    transport.Addr
	}
	// ClaimDecision is the coalescer's answer to one ClaimSubmit.
	ClaimDecision struct {
		Key     string
		Won     bool
		TooLate bool
		Winner  ids.PID
		Ballots int
	}
	// ViewUpdate reconfigures the coalescer's voter set (same-node
	// message from Coalescer.SetView to the coalescer proc; never
	// crosses the wire, so it needs no codec registration). Rounds
	// started under an older epoch are abandoned and their claims
	// retried under the new quorum.
	ViewUpdate struct {
		Epoch   int64
		Members []ids.NodeID
	}
)

// ballotClaimsSize estimates the wire size of a claim list.
func ballotClaimsSize(claims []BallotClaim) int {
	n := 8
	for _, c := range claims {
		n += len(c.Key) + 10
	}
	return n
}

// WireSize implements transport.WireSizer for the simulator's byte
// accounting (batches are the one control message that isn't small and
// fixed-size).
func (m BallotReq) WireSize() int {
	return ballotClaimsSize(m.Claims) + len(m.Reply.Port) + 12
}

// WireSize implements transport.WireSizer.
func (m BallotReply) WireSize() int {
	n := 16
	for _, v := range m.Votes {
		n += len(v.Key) + 11
	}
	return n
}

// WireSize implements transport.WireSizer.
func (m BallotRelease) WireSize() int { return ballotClaimsSize(m.Claims) }

// WireSize implements transport.WireSizer.
func (m BallotCommit) WireSize() int { return ballotClaimsSize(m.Commits) }

// The pipeline's shape: at most maxInflight ballot rounds outstanding,
// at most maxBatch claims per round.
const (
	maxInflight = 4
	maxBatch    = 128
)

// Coalescer is one node's group-commit service. Build one per daemon
// and route every local claim through Claim; the service batches them
// into pipelined quorum rounds against the voters at votePort.
type Coalescer struct {
	ep       transport.Endpoint
	members  []ids.NodeID // initial view; the live set is the proc's
	votePort string
	port     string
	cfg      Config
	quorum   atomic.Int32 // live quorum size, mirrored from the proc
	epoch    atomic.Int64 // live membership epoch, mirrored likewise
	handle   transport.Handle
}

// CoalescerPort returns the intake port a coalescer binds next to a
// given vote port.
func CoalescerPort(votePort string) string {
	if votePort == "" {
		votePort = DefaultVotePort
	}
	return votePort + "/batch"
}

// StartCoalescer spawns the group-commit service on ep. votePort ""
// means DefaultVotePort; members are the voter nodes (usually
// including ep's own).
func StartCoalescer(ep transport.Endpoint, members []ids.NodeID, votePort string, cfg Config) *Coalescer {
	if votePort == "" {
		votePort = DefaultVotePort
	}
	co := &Coalescer{
		ep:       ep,
		members:  append([]ids.NodeID(nil), members...),
		votePort: votePort,
		port:     CoalescerPort(votePort),
		cfg:      cfg.withDefaults(),
	}
	co.quorum.Store(int32(len(members)/2 + 1))
	inbox := ep.Bind(co.port)
	co.handle = ep.Spawn(fmt.Sprintf("coalescer-%v", ep.ID()), func(p transport.Proc) {
		r := &coalRun{co: co}
		r.run(p, inbox)
	})
	return co
}

// Stop kills the coalescer proc. In-flight claims time out in Claim.
func (co *Coalescer) Stop() { co.handle.Kill() }

// Quorum returns the majority size of the current voter view.
func (co *Coalescer) Quorum() int { return int(co.quorum.Load()) }

// Epoch returns the membership epoch the coalescer is operating under.
func (co *Coalescer) Epoch() int64 { return co.epoch.Load() }

// SetView reconfigures the voter set to the given membership view.
// Safe from any goroutine: the view travels to the coalescer proc as a
// same-node message, so reconfiguration serializes with round
// processing. Lower (stale) epochs are ignored there.
func (co *Coalescer) SetView(epoch int64, members []ids.NodeID) {
	co.ep.Send(transport.Addr{Node: co.ep.ID(), Port: co.port}, ViewUpdate{
		Epoch:   epoch,
		Members: append([]ids.NodeID(nil), members...),
	})
}

// claimDeadline bounds one claim end to end: every ballot can take a
// full reply timeout plus its backoff, with slack for queueing behind a
// full pipeline.
func (co *Coalescer) claimDeadline() time.Duration {
	a := time.Duration(co.cfg.MaxAttempts)
	return a*(co.cfg.ReplyTimeout+co.cfg.BackoffBase*(a+4)) + 2*co.cfg.ReplyTimeout
}

// Claim routes one keyed claim through the coalescer, blocking the
// calling process until the batched protocol decides it. At most one
// Claim per key ever returns Won.
func (co *Coalescer) Claim(p transport.Proc, key string, pid ids.PID) Result {
	replyPort := fmt.Sprintf("%s/claim/%s/%v", co.port, key, pid)
	replies := co.ep.Bind(replyPort)
	defer co.ep.Unbind(replyPort)
	co.ep.Send(transport.Addr{Node: co.ep.ID(), Port: co.port}, ClaimSubmit{
		Key:      key,
		Claimant: pid,
		Reply:    transport.Addr{Node: co.ep.ID(), Port: replyPort},
	})
	deadline := co.ep.Now().Add(co.claimDeadline())
	for {
		remain := deadline.Sub(co.ep.Now())
		if remain < 0 {
			return Result{}
		}
		env, ok := replies.RecvTimeout(p, remain)
		if !ok {
			return Result{}
		}
		d, isDecision := env.Payload.(ClaimDecision)
		if !isDecision || d.Key != key {
			continue
		}
		return Result{Won: d.Won, TooLate: d.TooLate, Winner: d.Winner, Ballots: d.Ballots}
	}
}

// batchClaim is one claim's life inside the coalescer. A leader is
// pending (ready or backing off), then repeatedly in a round until
// decided; a follower waits on its key's leader and never sees a round
// unless promoted.
type batchClaim struct {
	key       string
	pid       ids.PID
	reply     transport.Addr
	deadline  time.Time // when the claimant's Claim gives up waiting
	attempts  int       // rounds participated in
	retryAt   time.Time // zero = ready now
	grants    int
	answered  int
	followers []*batchClaim // later local claims on key, in arrival order
}

// batchRound is one in-flight quorum round. byKey holds the claims
// still owned by this round: a claim the round decides, or that fails
// the round and re-enters the pending queue, is removed, so late replies
// cannot touch it while a NEWER round carries it.
type batchRound struct {
	id       int64
	epoch    int64 // membership epoch the round was built under
	deadline time.Time
	start    time.Time
	retries0 int64 // transport retry count at send (RTT stability)
	byKey    map[string]*batchClaim
	voters   map[ids.NodeID]bool // answered
}

// decidedCap bounds the decided-key cache. Stragglers arrive within a
// block's lifetime of the decision, so the cache only has to outlast
// the jobs in flight on one node.
const decidedCap = 1024

// decidedKeys remembers the winners of the last decidedCap keys this
// coalescer saw decided, evicting oldest first. Keys are never reused
// and a voter's commit lock is permanent, so an entry can never go
// stale; correctness never rests on a hit.
type decidedKeys struct {
	winner map[string]ids.PID
	order  [decidedCap]string // ring, oldest at next once full
	next   int
}

func (d *decidedKeys) put(key string, winner ids.PID) {
	if _, ok := d.winner[key]; ok {
		return
	}
	if len(d.winner) == decidedCap {
		delete(d.winner, d.order[d.next])
	}
	d.order[d.next] = key
	d.next = (d.next + 1) % decidedCap
	d.winner[key] = winner
}

// coalRun is the single-proc state machine; no locks, everything runs
// on the coalescer proc. members/quorum/epoch are the LIVE view —
// they start from the Coalescer's construction arguments and move
// only via ViewUpdate, so every round is built against exactly one
// view and concurrent rounds never mix quorum definitions (two
// majorities only intersect when drawn from the same member list).
type coalRun struct {
	co        *Coalescer
	members   []ids.NodeID
	quorum    int
	epoch     int64
	leaders   map[string]*batchClaim // undecided keys: the one claim in flight
	pending   []*batchClaim          // leaders awaiting a round, one per key
	rounds    map[int64]*batchRound
	decided   decidedKeys
	nextRound int64
}

func (r *coalRun) run(p transport.Proc, inbox transport.Mailbox) {
	r.leaders = make(map[string]*batchClaim)
	r.rounds = make(map[int64]*batchRound)
	r.decided.winner = make(map[string]ids.PID, decidedCap)
	r.nextRound = 1
	r.members = append([]ids.NodeID(nil), r.co.members...)
	r.quorum = len(r.members)/2 + 1
	for {
		now := r.co.ep.Now()
		r.expire(now)
		r.flush(now)
		wake, has := r.nextWake()
		var env transport.Envelope
		var ok bool
		if has {
			d := wake.Sub(r.co.ep.Now())
			if d < 0 {
				d = 0
			}
			env, ok = inbox.RecvTimeout(p, d)
		} else {
			env, ok = inbox.Recv(p)
		}
		if !ok {
			// Recv fails on timeout, kill, or close. With no deadline
			// armed — or when we woke before the armed deadline — the
			// mailbox is gone; otherwise it is just the timer firing.
			if !has || r.co.ep.Now().Before(wake) {
				return
			}
			continue
		}
		switch m := env.Payload.(type) {
		case ClaimSubmit:
			r.submit(m)
		case BallotReply:
			r.onReply(m)
		case ViewUpdate:
			r.setView(m)
		}
	}
}

// submit takes in one local claim: answered at once if its key is
// already decided, parked behind the key's leader if one is in flight,
// and otherwise made the leader and queued for a round.
func (r *coalRun) submit(m ClaimSubmit) {
	c := &batchClaim{
		key: m.Key, pid: m.Claimant, reply: m.Reply,
		deadline: r.co.ep.Now().Add(r.co.claimDeadline()),
	}
	if winner, ok := r.decided.winner[c.key]; ok {
		r.followed(1)
		r.answer(c, winner, 0)
		return
	}
	if leader := r.leaders[c.key]; leader != nil {
		leader.followers = append(leader.followers, c)
		return
	}
	r.leaders[c.key] = c
	r.pending = append(r.pending, c)
}

// nextWake returns the earliest pending deadline: a round's reply
// timeout or a backoff retry. Retries already due are excluded — if
// they weren't flushed this iteration the pipeline is full, and the
// wake-up that matters is a round completing.
func (r *coalRun) nextWake() (time.Time, bool) {
	var at time.Time
	min := func(t time.Time) {
		if !t.IsZero() && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	for _, rd := range r.rounds {
		min(rd.deadline)
	}
	now := r.co.ep.Now()
	for _, c := range r.pending {
		if c.retryAt.After(now) {
			min(c.retryAt)
		}
	}
	return at, !at.IsZero()
}

// expire abandons every round past its reply deadline.
func (r *coalRun) expire(now time.Time) {
	for id, rd := range r.rounds {
		if !rd.deadline.After(now) {
			delete(r.rounds, id)
			r.abandonRound(rd)
		}
	}
}

// flush starts rounds while the pipeline has room and claims are ready.
func (r *coalRun) flush(now time.Time) {
	for len(r.rounds) < maxInflight {
		ready := r.takeReady(now)
		if len(ready) == 0 {
			return
		}
		r.startRound(now, ready)
	}
}

// takeReady removes up to maxBatch due claims from pending. Only
// leaders are ever pending, so the batch holds each key at most once.
func (r *coalRun) takeReady(now time.Time) []*batchClaim {
	if len(r.pending) == 0 {
		return nil
	}
	var ready []*batchClaim
	rest := r.pending[:0]
	for _, c := range r.pending {
		if len(ready) >= maxBatch || c.retryAt.After(now) {
			rest = append(rest, c)
			continue
		}
		ready = append(ready, c)
	}
	r.pending = rest
	return ready
}

// startRound sends one batched ballot to every voter.
func (r *coalRun) startRound(now time.Time, claims []*batchClaim) {
	rd := &batchRound{
		id:       r.nextRound,
		epoch:    r.epoch,
		deadline: now.Add(r.co.cfg.ReplyTimeout),
		start:    now,
		retries0: r.co.cfg.Net.RetryCount(),
		byKey:    make(map[string]*batchClaim, len(claims)),
		voters:   make(map[ids.NodeID]bool, len(r.members)),
	}
	r.nextRound++
	req := BallotReq{
		Round: rd.id,
		Epoch: rd.epoch,
		Reply: transport.Addr{Node: r.co.ep.ID(), Port: r.co.port},
	}
	req.Claims = make([]BallotClaim, len(claims))
	for i, c := range claims {
		c.attempts++
		c.grants = 0
		c.answered = 0
		rd.byKey[c.key] = c
		req.Claims[i] = BallotClaim{Key: c.key, Claimant: c.pid}
	}
	r.rounds[rd.id] = rd
	for _, m := range r.members {
		r.co.ep.Send(transport.Addr{Node: m, Port: r.co.votePort}, req)
	}
	if nc := r.co.cfg.Net; nc != nil {
		nc.BallotRounds.Add(1)
		nc.BallotsCoalesced.Add(int64(len(claims)))
	}
}

// onReply folds one voter's batch answer into its round: eager per-key
// decisions, then one batched commit/release for whatever was decided.
func (r *coalRun) onReply(m BallotReply) {
	rd := r.rounds[m.Round]
	if rd == nil || rd.voters[m.Voter] {
		return // stale round or duplicate voter
	}
	if m.Stale {
		// The voter's membership view outran the one this round was
		// built under: its quorum size may no longer be a majority, so
		// no decision from this round can be trusted. Abandon it —
		// release whatever other voters granted and push the undecided
		// claims back through the retry path; by the time they re-ship,
		// the local agent's ViewUpdate has normally arrived.
		delete(r.rounds, m.Round)
		r.abandonRound(rd)
		return
	}
	rd.voters[m.Voter] = true
	now := r.co.ep.Now()
	r.co.cfg.Net.ObserveRTTIfStable(now.Sub(rd.start), rd.retries0)
	var commits, releases []BallotClaim
	for _, vote := range m.Votes {
		c := rd.byKey[vote.Key]
		if c == nil {
			continue // already decided or retried
		}
		c.answered++
		if vote.Granted {
			c.grants++
		}
		claim := BallotClaim{Key: c.key, Claimant: c.pid}
		switch {
		case vote.Winner.IsValid():
			// The key is committed. Naming us means a replayed commit:
			// won, with nothing to re-announce.
			if vote.Winner != c.pid {
				releases = append(releases, claim)
			}
			r.settle(c, vote.Winner)
		case c.grants >= r.quorum:
			commits = append(commits, claim)
			r.settle(c, c.pid)
		case c.answered >= len(r.members):
			// Every voter answered and quorum never formed: vote split.
			releases = append(releases, claim)
			r.failBallot(c, now)
		default:
			continue
		}
		delete(rd.byKey, c.key)
	}
	if len(rd.byKey) == 0 || len(rd.voters) >= len(r.members) {
		delete(r.rounds, m.Round)
		// A claim can stay open past the last voter's reply only if that
		// voter's ballot omitted its key (a malformed reply): fail it
		// onto the retry path rather than stranding the claimant.
		for _, c := range rd.byKey {
			releases = append(releases, BallotClaim{Key: c.key, Claimant: c.pid})
			r.failBallot(c, now)
		}
	}
	r.broadcastCommit(commits)
	r.broadcastRelease(releases)
}

// settle ends the flight on c's key now that a quorum has decided it:
// the leader and every follower parked behind it get the same answer,
// and the key is remembered for stragglers.
func (r *coalRun) settle(c *batchClaim, winner ids.PID) {
	delete(r.leaders, c.key)
	r.decided.put(c.key, winner)
	r.followed(len(c.followers))
	// The leader goes last. Its answer is the one a block's commit waits
	// on, and the Go scheduler runs the goroutine readied last next on
	// this thread; one readied earlier is left for an idle thread to
	// wake up and steal (on quorum3 that order put 1.2 % of blocks
	// behind a 4 ms thread wake-up, this one 0.4 %).
	for _, f := range c.followers {
		r.answer(f, winner, 0)
	}
	r.answer(c, winner, c.attempts)
}

// answer tells one claimant the outcome of its key: won if it is the
// committed winner, too late otherwise.
func (r *coalRun) answer(c *batchClaim, winner ids.PID, ballots int) {
	d := ClaimDecision{Key: c.key, Ballots: ballots}
	if winner == c.pid {
		d.Won = true
	} else {
		d.TooLate = true
		d.Winner = winner
	}
	r.co.ep.Send(c.reply, d)
}

// followed counts claims answered without a round of their own. It runs
// before their answers go out, so a claimant that has its answer also
// sees the count.
func (r *coalRun) followed(n int) {
	if nc := r.co.cfg.Net; nc != nil {
		nc.ClaimsFollowed.Add(int64(n))
	}
}

// failBallot retries c after backoff, or gives up on it once attempts
// are exhausted. Caller queues the vote release.
func (r *coalRun) failBallot(c *batchClaim, now time.Time) {
	if c.attempts >= r.co.cfg.MaxAttempts {
		r.giveUp(c, now)
		return
	}
	// Deterministic stagger: lower PIDs retry sooner, breaking
	// symmetric vote splits between coalescers.
	backoff := r.co.cfg.BackoffBase * time.Duration(c.attempts)
	backoff += time.Duration(c.pid%16) * (r.co.cfg.BackoffBase / 4)
	c.retryAt = now.Add(backoff)
	r.pending = append(r.pending, c)
}

// giveUp reports c lost with its key still undecided, and promotes the
// first follower whose Claim is still waiting to lead the key with a
// fresh set of attempts. A follower past its deadline has already
// returned to its caller: a round won for it would commit the key for
// nobody.
func (r *coalRun) giveUp(c *batchClaim, now time.Time) {
	r.co.ep.Send(c.reply, ClaimDecision{Key: c.key, Ballots: c.attempts})
	for i, f := range c.followers {
		if now.Before(f.deadline) {
			f.followers = c.followers[i+1:]
			r.leaders[c.key] = f
			r.pending = append(r.pending, f)
			return
		}
	}
	delete(r.leaders, c.key)
}

func (r *coalRun) broadcastCommit(commits []BallotClaim) {
	if len(commits) == 0 {
		return
	}
	msg := BallotCommit{Commits: commits}
	for _, m := range r.members {
		r.co.ep.Send(transport.Addr{Node: m, Port: r.co.votePort}, msg)
	}
}

func (r *coalRun) broadcastRelease(releases []BallotClaim) {
	if len(releases) == 0 {
		return
	}
	msg := BallotRelease{Claims: releases}
	for _, m := range r.members {
		r.co.ep.Send(transport.Addr{Node: m, Port: r.co.votePort}, msg)
	}
}

// abandonRound fails every claim a dead round (timed out or
// epoch-fenced) still owns onto the retry path and releases their votes.
func (r *coalRun) abandonRound(rd *batchRound) {
	now := r.co.ep.Now()
	var releases []BallotClaim
	for _, c := range rd.byKey {
		releases = append(releases, BallotClaim{Key: c.key, Claimant: c.pid})
		r.failBallot(c, now)
	}
	r.broadcastRelease(releases)
}

// setView adopts a newer membership view: swap the voter set, derive
// the new quorum, and abandon every round built under an older epoch
// so no decision ever mixes two views' majorities. Stale or duplicate
// epochs are ignored (the membership agent's epochs are monotonic).
func (r *coalRun) setView(m ViewUpdate) {
	if m.Epoch <= r.epoch || len(m.Members) == 0 {
		return
	}
	r.epoch = m.Epoch
	r.members = append(r.members[:0], m.Members...)
	r.quorum = len(r.members)/2 + 1
	// Quorum first: a reader that sees the new epoch sees its quorum.
	r.co.quorum.Store(int32(r.quorum))
	r.co.epoch.Store(r.epoch)
	for id, rd := range r.rounds {
		if rd.epoch < r.epoch {
			delete(r.rounds, id)
			r.abandonRound(rd)
		}
	}
}
