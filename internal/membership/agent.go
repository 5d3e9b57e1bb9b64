package membership

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"altrun/internal/ids"
	"altrun/internal/transport"
)

// Agent is one node's membership daemon: a single spawned transport
// proc that owns the failure-detector cycle and absorbs gossip. All
// externally visible state (member table, epoch, ring) sits behind a
// mutex so the serve path can read it without touching the proc.
type Agent struct {
	ep     transport.Endpoint
	cfg    Config
	self   ids.NodeID
	handle transport.Handle

	// pseq numbers probe rounds; only the agent proc touches it.
	pseq int64

	mu      sync.Mutex
	members map[ids.NodeID]*memberState // includes self; dead kept as tombstones
	inc     int64                       // own incarnation
	seq     int64                       // own load/addr freshness stamp
	epoch   int64
	ring    *Ring
	rumors  map[ids.NodeID]*rumor // pending piggyback, latest rumor per node
}

// memberState is the agent's belief about one node.
type memberState struct {
	addr     string
	inc      int64
	status   Status
	load     int32
	seq      int64     // freshness of load/addr
	deadline time.Time // suspicion expiry while status == StatusSuspect
}

// rumor is one update awaiting piggyback, with its retransmit budget.
type rumor struct {
	u    Update
	left int
}

// probe tracks the one outstanding failure-detector round.
type probe struct {
	target   ids.NodeID
	seq      int64
	escalate time.Time // send ping-reqs if unacked by here
	fail     time.Time // suspect the target if unacked by here
	indirect bool
}

// Start binds Port and spawns the agent proc. The initial view
// (static peers, epoch 1) is announced via OnView from inside the
// proc before any gossip flows.
func Start(ep transport.Endpoint, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	if cfg.Counters == nil {
		cfg.Counters = &Counters{}
	}
	a := &Agent{
		ep:      ep,
		cfg:     cfg,
		self:    ep.ID(),
		members: make(map[ids.NodeID]*memberState),
		epoch:   1,
		rumors:  make(map[ids.NodeID]*rumor),
	}
	a.members[a.self] = &memberState{addr: cfg.SelfAddr, status: StatusAlive}
	for _, p := range cfg.Static {
		if p.ID == a.self || p.ID == 0 {
			continue
		}
		a.members[p.ID] = &memberState{addr: p.Addr, status: StatusAlive}
	}
	a.ring = NewRing(a.viewMembersLocked(), cfg.RingReplicas)
	inbox := ep.Bind(Port)
	a.handle = ep.Spawn(fmt.Sprintf("member-%v", a.self), func(p transport.Proc) {
		a.run(p, inbox)
	})
	return a
}

// Stop kills the agent proc. It does not announce a leave; call
// Leave first for a graceful departure.
func (a *Agent) Stop() { a.handle.Kill() }

// run is the agent proc: the coalescer's RecvTimeout / next-wake
// pattern, with the probe cycle, suspicion expiries, and join
// announcements as the timed work.
func (a *Agent) run(p transport.Proc, inbox transport.Mailbox) {
	seed := a.cfg.Seed
	if seed == 0 {
		seed = int64(a.self)*7919 + 1
	}
	rng := rand.New(rand.NewSource(seed))

	// Mesh the transport for the seeds we already know, then announce
	// the initial view so consensus starts from epoch 1.
	a.notifyPeers(a.knownPeers())
	a.notifyView(a.View())

	var (
		order     []ids.NodeID // shuffled probe round-robin
		pr        *probe
		nextProbe = a.ep.Now().Add(a.cfg.ProbeInterval)
		joinAt    time.Time
	)
	if len(a.cfg.Join) > 0 {
		joinAt = a.ep.Now()
	}
	for {
		now := a.ep.Now()
		// Join announcements until some peer's member table arrives.
		if !joinAt.IsZero() && !now.Before(joinAt) {
			if a.othersKnown() {
				joinAt = time.Time{}
			} else {
				a.announceJoin()
				joinAt = now.Add(a.cfg.ProbeInterval)
			}
		}
		// Probe escalation and failure.
		if pr != nil {
			if !now.Before(pr.fail) {
				a.probeFailed(pr.target, now)
				pr = nil
			} else if !pr.indirect && !now.Before(pr.escalate) {
				a.sendIndirect(pr, rng)
				pr.indirect = true
			}
		}
		// Suspicion timeouts.
		a.expireSuspects(now)
		// A new probe round. If the previous round is somehow still
		// open (timeouts are clamped under the interval, so it should
		// not be), let it finish rather than orphaning its seq.
		if !now.Before(nextProbe) {
			nextProbe = now.Add(a.cfg.ProbeInterval)
			if pr == nil {
				pr = a.startProbe(&order, rng, now)
			}
		}

		wake := nextProbe
		if pr != nil {
			if pr.fail.Before(wake) {
				wake = pr.fail
			}
			if !pr.indirect && pr.escalate.Before(wake) {
				wake = pr.escalate
			}
		}
		if t, ok := a.nextSuspicion(); ok && t.Before(wake) {
			wake = t
		}
		if !joinAt.IsZero() && joinAt.Before(wake) {
			wake = joinAt
		}
		d := wake.Sub(a.ep.Now())
		if d < 0 {
			d = 0
		}
		env, ok := inbox.RecvTimeout(p, d)
		if !ok {
			// Timeout, kill, or transport close. A wake-up before the
			// armed deadline means the mailbox is gone.
			if a.ep.Now().Before(wake) {
				return
			}
			continue
		}
		now = a.ep.Now()
		switch m := env.Payload.(type) {
		case Ping:
			a.applyUpdates(m.Updates, now)
			a.send(m.Reply, Ack{Seq: m.Seq, Node: a.self, Updates: a.piggyback()})
		case PingReq:
			a.cfg.Counters.PingReqRelays.Add(1)
			a.applyUpdates(m.Updates, now)
			// Forward with the origin's reply address: the ack skips us.
			a.send(a.portOf(m.Target), Ping{Seq: m.Seq, Reply: m.Reply, Updates: a.piggyback()})
		case Ack:
			a.applyUpdates(m.Updates, now)
			if pr != nil && m.Seq == pr.seq && m.Node == pr.target {
				a.cfg.Counters.AcksReceived.Add(1)
				pr = nil
			}
		case Gossip:
			a.applyUpdates(m.Updates, now)
			if m.Join {
				// Join handshake: answer with the full member table so
				// the joiner (or a restarted node seeing its own
				// tombstone) converges in one exchange.
				a.send(transport.Addr{Node: env.From, Port: Port}, Gossip{Updates: a.fullTable()})
			}
		case EpochChange:
			a.applyUpdates(m.Updates, now)
			a.adoptEpoch(m.Epoch)
		}
	}
}

// ---- probe cycle ----

// startProbe picks the next round-robin target and pings it.
func (a *Agent) startProbe(order *[]ids.NodeID, rng *rand.Rand, now time.Time) *probe {
	target, ok := a.nextTarget(order, rng)
	if !ok {
		return nil
	}
	a.pseq++
	a.cfg.Counters.ProbesSent.Add(1)
	a.send(a.portOf(target), Ping{
		Seq:     a.pseq,
		Reply:   transport.Addr{Node: a.self, Port: Port},
		Updates: a.piggyback(),
	})
	return &probe{
		target:   target,
		seq:      a.pseq,
		escalate: now.Add(a.cfg.ProbeTimeout),
		fail:     now.Add(2 * a.cfg.ProbeTimeout),
	}
}

// nextTarget draws from a shuffled rotation of in-view peers
// (suspects included — probing them is their refutation channel).
func (a *Agent) nextTarget(order *[]ids.NodeID, rng *rand.Rand) (ids.NodeID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for tries := 0; tries < 2; tries++ {
		for len(*order) > 0 {
			id := (*order)[0]
			*order = (*order)[1:]
			if m := a.members[id]; m != nil && m.status.InView() {
				return id, true
			}
		}
		next := a.viewMembersLocked()
		*order = (*order)[:0]
		for _, id := range next {
			if id != a.self {
				*order = append(*order, id)
			}
		}
		rng.Shuffle(len(*order), func(i, j int) {
			(*order)[i], (*order)[j] = (*order)[j], (*order)[i]
		})
	}
	return 0, false
}

// sendIndirect fans a ping-req out to k mediators after a direct miss.
func (a *Agent) sendIndirect(pr *probe, rng *rand.Rand) {
	a.mu.Lock()
	var pool []ids.NodeID
	for id, m := range a.members {
		if id != a.self && id != pr.target && m.status == StatusAlive {
			pool = append(pool, id)
		}
	}
	a.mu.Unlock()
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	k := a.cfg.IndirectProbes
	if k > len(pool) {
		k = len(pool)
	}
	for _, mediator := range pool[:k] {
		a.cfg.Counters.IndirectProbes.Add(1)
		a.send(a.portOf(mediator), PingReq{
			Seq:     pr.seq,
			Target:  pr.target,
			Reply:   transport.Addr{Node: a.self, Port: Port},
			Updates: a.piggyback(),
		})
	}
}

// probeFailed marks a fully missed round's target suspect.
func (a *Agent) probeFailed(target ids.NodeID, now time.Time) {
	a.mu.Lock()
	m := a.members[target]
	if m == nil || m.status != StatusAlive {
		a.mu.Unlock()
		return
	}
	m.status = StatusSuspect
	m.deadline = now.Add(a.cfg.SuspicionTimeout())
	a.enqueueLocked(Update{Node: target, Addr: m.addr, Incarnation: m.inc, Status: StatusSuspect})
	a.mu.Unlock()
	a.cfg.Counters.Suspicions.Add(1)
	a.logf("membership: node %d suspected (probe %s unanswered)", target, 2*a.cfg.ProbeTimeout)
}

// expireSuspects declares suspects dead once their refutation window
// closes; any death is a view change.
func (a *Agent) expireSuspects(now time.Time) {
	a.mu.Lock()
	var died []ids.NodeID
	for id, m := range a.members {
		if m.status == StatusSuspect && !m.deadline.After(now) {
			m.status = StatusDead
			a.enqueueLocked(Update{Node: id, Addr: m.addr, Incarnation: m.inc, Status: StatusDead})
			died = append(died, id)
		}
	}
	a.mu.Unlock()
	if len(died) == 0 {
		return
	}
	sort.Slice(died, func(i, j int) bool { return died[i] < died[j] })
	for _, id := range died {
		a.cfg.Counters.Deaths.Add(1)
		a.logf("membership: node %d dead (suspicion timeout %s)", id, a.cfg.SuspicionTimeout())
	}
	a.bumpEpoch()
}

// nextSuspicion returns the earliest suspicion deadline.
func (a *Agent) nextSuspicion() (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var at time.Time
	for _, m := range a.members {
		if m.status == StatusSuspect && (at.IsZero() || m.deadline.Before(at)) {
			at = m.deadline
		}
	}
	return at, !at.IsZero()
}

// ---- update absorption ----

// applyUpdates folds received rumors into the member table and fires
// the resulting callbacks (new peers, view change) outside the lock.
func (a *Agent) applyUpdates(us []Update, now time.Time) {
	if len(us) == 0 {
		return
	}
	a.mu.Lock()
	var peers []Peer
	changed := false
	for _, u := range us {
		c, p := a.absorbLocked(u, now)
		changed = changed || c
		if p != nil {
			peers = append(peers, *p)
		}
	}
	a.mu.Unlock()
	a.notifyPeers(peers)
	if changed {
		a.bumpEpoch()
	}
}

// absorbLocked applies one rumor. Returns whether the view membership
// set changed and, for newly learned addresses, the peer to admit.
func (a *Agent) absorbLocked(u Update, now time.Time) (bool, *Peer) {
	if u.Node == 0 {
		return false, nil
	}
	if u.Node == a.self {
		// Someone thinks we are suspect or dead: refute by outliving
		// their incarnation. The bumped-inc alive update rides every
		// subsequent message and receivers re-gossip it.
		if (u.Status == StatusSuspect || u.Status == StatusDead) && u.Incarnation >= a.inc {
			a.inc = u.Incarnation + 1
			a.cfg.Counters.Refutations.Add(1)
			a.logf("membership: refuting %s rumor about self (incarnation → %d)", u.Status, a.inc)
		}
		return false, nil
	}
	m := a.members[u.Node]
	if m == nil {
		m = &memberState{
			addr:   u.Addr,
			inc:    u.Incarnation,
			status: u.Status,
			load:   u.Load,
			seq:    u.Seq,
		}
		if u.Status == StatusSuspect {
			m.deadline = now.Add(a.cfg.SuspicionTimeout())
		}
		a.members[u.Node] = m
		a.enqueueLocked(u)
		if !u.Status.InView() {
			return false, nil // tombstone for a node we never saw
		}
		a.cfg.Counters.Joins.Add(1)
		var p *Peer
		if u.Addr != "" {
			p = &Peer{ID: u.Node, Addr: u.Addr}
		}
		return true, p
	}
	apply := false
	switch u.Status {
	case StatusAlive:
		apply = u.Incarnation > m.inc
	case StatusSuspect:
		apply = u.Incarnation > m.inc || (u.Incarnation == m.inc && m.status == StatusAlive)
	case StatusDead, StatusLeft:
		apply = u.Incarnation >= m.inc && m.status != u.Status
	}
	var peer *Peer
	changed := false
	if apply {
		was := m.status
		m.inc = u.Incarnation
		m.status = u.Status
		if u.Addr != "" && u.Addr != m.addr {
			m.addr = u.Addr
			peer = &Peer{ID: u.Node, Addr: u.Addr}
		}
		switch u.Status {
		case StatusSuspect:
			if was != StatusSuspect {
				m.deadline = now.Add(a.cfg.SuspicionTimeout())
			}
		default:
			m.deadline = time.Time{}
		}
		changed = was.InView() != u.Status.InView()
		if changed {
			switch {
			case u.Status == StatusLeft:
				a.cfg.Counters.Leaves.Add(1)
			case u.Status == StatusDead:
				a.cfg.Counters.Deaths.Add(1)
			default:
				a.cfg.Counters.Joins.Add(1) // resurrection
			}
		}
		a.enqueueLocked(u)
	}
	// Load hints travel on alive updates independent of the status
	// precedence: newest origin stamp wins.
	if u.Seq > m.seq {
		m.seq = u.Seq
		m.load = u.Load
	}
	return changed, peer
}

// ---- epoch and view ----

// bumpEpoch advances the fencing epoch after a membership-set change,
// rebuilds the ring, notifies the local consumers, and announces the
// new epoch to the peers.
func (a *Agent) bumpEpoch() {
	a.mu.Lock()
	a.epoch++
	a.ring = NewRing(a.viewMembersLocked(), a.cfg.RingReplicas)
	v := a.viewLocked()
	targets := a.aliveOthersLocked()
	pg := a.piggybackLocked()
	a.mu.Unlock()
	a.cfg.Counters.EpochChanges.Add(1)
	a.notifyView(v)
	for _, t := range targets {
		a.send(a.portOf(t), EpochChange{Epoch: v.Epoch, Updates: pg})
	}
}

// adoptEpoch raises the local epoch to a higher announced one.
func (a *Agent) adoptEpoch(e int64) {
	a.mu.Lock()
	if e <= a.epoch {
		a.mu.Unlock()
		return
	}
	a.epoch = e
	a.ring = NewRing(a.viewMembersLocked(), a.cfg.RingReplicas)
	v := a.viewLocked()
	a.mu.Unlock()
	a.cfg.Counters.EpochChanges.Add(1)
	a.notifyView(v)
}

// viewMembersLocked returns the sorted in-view node IDs.
func (a *Agent) viewMembersLocked() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(a.members))
	for id, m := range a.members {
		if m.status.InView() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (a *Agent) viewLocked() View {
	return View{Epoch: a.epoch, Members: a.viewMembersLocked()}
}

func (a *Agent) aliveOthersLocked() []ids.NodeID {
	var out []ids.NodeID
	for id, m := range a.members {
		if id != a.self && m.status == StatusAlive {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- gossip assembly ----

// selfUpdateLocked stamps a fresh alive update for this node, carrying
// the current load hint.
func (a *Agent) selfUpdateLocked() Update {
	a.seq++
	var load int32
	if a.cfg.Load != nil {
		load = a.cfg.Load()
	}
	self := a.members[a.self]
	self.load = load
	self.seq = a.seq
	self.inc = a.inc
	return Update{
		Node:        a.self,
		Addr:        a.cfg.SelfAddr,
		Incarnation: a.inc,
		Status:      StatusAlive,
		Seq:         a.seq,
		Load:        load,
	}
}

// piggyback builds the update list for one outgoing message: a fresh
// self update plus up to MaxPiggyback queued rumors.
func (a *Agent) piggyback() []Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.piggybackLocked()
}

func (a *Agent) piggybackLocked() []Update {
	out := make([]Update, 0, a.cfg.MaxPiggyback+1)
	out = append(out, a.selfUpdateLocked())
	if len(a.rumors) == 0 {
		return out
	}
	keys := make([]ids.NodeID, 0, len(a.rumors))
	for id := range a.rumors {
		keys = append(keys, id)
	}
	// Freshest budget first so new rumors are not starved by old ones;
	// node ID breaks ties deterministically for the simulator.
	sort.Slice(keys, func(i, j int) bool {
		ri, rj := a.rumors[keys[i]], a.rumors[keys[j]]
		if ri.left != rj.left {
			return ri.left > rj.left
		}
		return keys[i] < keys[j]
	})
	for _, id := range keys {
		if len(out) > a.cfg.MaxPiggyback {
			break
		}
		r := a.rumors[id]
		out = append(out, r.u)
		r.left--
		if r.left <= 0 {
			delete(a.rumors, id)
		}
	}
	return out
}

// enqueueLocked queues a rumor for piggyback unless a fresher rumor
// about the same node is already waiting.
func (a *Agent) enqueueLocked(u Update) {
	if u.Node == a.self {
		return // the self update heads every message already
	}
	if cur := a.rumors[u.Node]; cur != nil && !supersedes(u, cur.u) {
		return
	}
	a.rumors[u.Node] = &rumor{u: u, left: a.retransmitLimitLocked()}
}

// supersedes orders rumors about one node: higher incarnation wins,
// then the more terminal status.
func supersedes(nu, old Update) bool {
	if nu.Incarnation != old.Incarnation {
		return nu.Incarnation > old.Incarnation
	}
	return statusRank(nu.Status) > statusRank(old.Status)
}

func statusRank(s Status) int {
	switch s {
	case StatusAlive:
		return 0
	case StatusSuspect:
		return 1
	case StatusLeft:
		return 2
	default:
		return 3 // dead
	}
}

// retransmitLimitLocked is the per-rumor piggyback budget:
// RetransmitMult × ⌈log₂(n+1)⌉, the SWIM dissemination bound.
func (a *Agent) retransmitLimitLocked() int {
	n := len(a.members)
	lim := a.cfg.RetransmitMult * int(math.Ceil(math.Log2(float64(n+1))))
	if lim < 3 {
		lim = 3
	}
	return lim
}

// fullTable renders every known member (tombstones included) as
// updates, self first — the join handshake's reply.
func (a *Agent) fullTable() []Update {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Update, 0, len(a.members))
	out = append(out, a.selfUpdateLocked())
	keys := make([]ids.NodeID, 0, len(a.members))
	for id := range a.members {
		if id != a.self {
			keys = append(keys, id)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, id := range keys {
		m := a.members[id]
		out = append(out, Update{
			Node:        id,
			Addr:        m.addr,
			Incarnation: m.inc,
			Status:      m.status,
			Seq:         m.seq,
			Load:        m.load,
		})
	}
	return out
}

// ---- join / leave ----

// othersKnown reports whether any peer besides self is in the view.
func (a *Agent) othersKnown() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for id, m := range a.members {
		if id != a.self && m.status.InView() {
			return true
		}
	}
	return false
}

// announceJoin introduces this node to its seeds.
func (a *Agent) announceJoin() {
	for _, s := range a.cfg.Join {
		if s.ID == 0 || s.ID == a.self {
			continue
		}
		if a.cfg.OnPeer != nil && s.Addr != "" {
			a.cfg.OnPeer(s.ID, s.Addr)
		}
		a.send(a.portOf(s.ID), Gossip{Join: true, Updates: a.piggyback()})
	}
}

// Leave announces a graceful departure to the live peers. Callers
// should still Stop the agent afterwards; receivers treat the leave
// like a death without the suspicion delay.
func (a *Agent) Leave() {
	a.mu.Lock()
	a.inc++
	a.seq++
	u := Update{
		Node:        a.self,
		Addr:        a.cfg.SelfAddr,
		Incarnation: a.inc,
		Status:      StatusLeft,
		Seq:         a.seq,
	}
	targets := a.aliveOthersLocked()
	a.mu.Unlock()
	for _, t := range targets {
		a.send(a.portOf(t), Gossip{Updates: []Update{u}})
	}
}

// ---- external reads ----

// Epoch returns the current fencing epoch.
func (a *Agent) Epoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// View returns the current epoch and in-view member set.
func (a *Agent) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.viewLocked()
}

// Members snapshots every known member (tombstones included), sorted
// by node ID — the /debug/members payload.
func (a *Agent) Members() []Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Member, 0, len(a.members))
	for id, m := range a.members {
		out = append(out, memberOf(id, m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Member returns one member's snapshot.
func (a *Agent) Member(id ids.NodeID) (Member, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.members[id]
	if m == nil {
		return Member{}, false
	}
	return memberOf(id, m), true
}

func memberOf(id ids.NodeID, m *memberState) Member {
	return Member{
		Node:        id,
		Addr:        m.addr,
		Incarnation: m.inc,
		Status:      m.status,
		Load:        m.load,
		Seq:         m.seq,
	}
}

// StatusCounts returns how many members are alive, suspect, and out
// of the view (dead or left) — the /metrics gauges.
func (a *Agent) StatusCounts() (alive, suspect, dead int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.members {
		switch m.status {
		case StatusAlive:
			alive++
		case StatusSuspect:
			suspect++
		default:
			dead++
		}
	}
	return
}

// RingNodes returns how many members the placement ring spans.
func (a *Agent) RingNodes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ring.Nodes()
}

// SuspicionTimeout returns the configured refutation window.
func (a *Agent) SuspicionTimeout() time.Duration { return a.cfg.SuspicionTimeout() }

// Pick routes key on the consistent-hash ring: the owner first, then
// ring successors, offering each in-view member to accept (which sees
// the gossiped load hint) until one passes. Suspects and tombstones
// are skipped before accept is consulted.
func (a *Agent) Pick(key string, accept func(Member) bool) (ids.NodeID, bool) {
	a.mu.Lock()
	ring := a.ring
	snap := make(map[ids.NodeID]Member, len(a.members))
	for id, m := range a.members {
		snap[id] = memberOf(id, m)
	}
	a.mu.Unlock()
	var out ids.NodeID
	found := false
	ring.Walk(key, func(n ids.NodeID) bool {
		m, ok := snap[n]
		if !ok || m.Status != StatusAlive {
			return true
		}
		if accept != nil && !accept(m) {
			return true
		}
		out, found = n, true
		return false
	})
	return out, found
}

// ---- plumbing ----

func (a *Agent) portOf(id ids.NodeID) transport.Addr {
	return transport.Addr{Node: id, Port: Port}
}

// knownPeers lists the members whose dial address is known (the
// static seeds at startup).
func (a *Agent) knownPeers() []Peer {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Peer
	for id, m := range a.members {
		if id != a.self && m.addr != "" {
			out = append(out, Peer{ID: id, Addr: m.addr})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (a *Agent) notifyPeers(peers []Peer) {
	if a.cfg.OnPeer == nil {
		return
	}
	for _, p := range peers {
		if p.Addr != "" {
			a.cfg.OnPeer(p.ID, p.Addr)
		}
	}
}

func (a *Agent) notifyView(v View) {
	if a.cfg.OnView != nil {
		a.cfg.OnView(v)
	}
}

func (a *Agent) send(to transport.Addr, msg any) {
	a.cfg.Counters.sent(transport.PayloadSize(msg))
	a.ep.Send(to, msg)
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}
