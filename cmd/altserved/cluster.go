package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/consensus"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/membership"
	"altrun/internal/serve"
	"altrun/internal/trace"
	"altrun/internal/transport"

	// One registration point for every protocol message's wire codec.
	_ "altrun/internal/transport/codec"
)

// The daemon's peer group: each altserved node runs a TCP transport
// endpoint, a consensus voter, a SWIM membership agent, and an rfork
// receiver. A job submitted to any node commits through a majority of
// the group's voters (§3.2.1: "the synchronization is set up as a
// majority consensus decision"), and a busy node can rfork a job —
// forward its submit request as one raw JSON frame — onto a peer chosen
// by consistent-hash placement over the live membership view, biased by
// the load hints the agents gossip on probe traffic.
//
// Wire-codec tags 200/201 were the polled load-query protocol, retired
// now that occupancy rides the membership gossip, and 202/203 the typed
// stm and choo rfork specs, retired when every kind came to be
// forwarded as its request; they stay reserved so a future message
// type can't collide with old peers on the wire.

// peerSpec maps node IDs to cluster listen addresses ("1=host:port,...").
type peerSpec map[ids.NodeID]string

// parsePeers parses a -peers/-join spec. It refuses a node named twice
// and an address without a port, naming the entry's 1-based position.
func parsePeers(s string) (peerSpec, error) {
	spec := peerSpec{}
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pos := i + 1
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %d %q: want <node>=<host:port>", pos, part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(id), 10, 32)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("peer %d %q: bad node id", pos, part)
		}
		node := ids.NodeID(n)
		if _, dup := spec[node]; dup {
			return nil, fmt.Errorf("peer %d %q: node %d named twice", pos, part, n)
		}
		addr = strings.TrimSpace(addr)
		if _, port, err := net.SplitHostPort(addr); err != nil || port == "" {
			return nil, fmt.Errorf("peer %d %q: want <node>=<host:port>", pos, part)
		}
		spec[node] = addr
	}
	if len(spec) == 0 {
		return nil, fmt.Errorf("empty peer spec %q", s)
	}
	return spec, nil
}

// clusterState is one daemon's membership in the peer group.
type clusterState struct {
	node ids.NodeID
	tcp  *transport.TCP
	// membersMu guards members, which tracks the live membership view
	// once the agent is running (the static spec until then).
	membersMu sync.Mutex
	members   []ids.NodeID
	voter     *consensus.Voter
	nc        *trace.NetCounters

	// SWIM membership: static peers seed the table on the -peers
	// compatibility path; seeds drive the -join handshake. The agent is
	// started by start() (its load hint reads the pool).
	agent          *membership.Agent
	mc             *membership.Counters
	staticPeers    []membership.Peer
	seedPeers      []membership.Peer
	gossipInterval time.Duration

	// Backpressure-aware rfork placement: per-peer inflight window,
	// reset whenever a fresher gossiped load hint arrives.
	winMu   sync.Mutex
	windows map[ids.NodeID]*peerWindow

	rforkFallbacks atomic.Int64 // rfork requests that ran locally instead
	rforksDropped  atomic.Int64 // forwarded frames refused on arrival

	// Every commit claim routes through the node's coalescer: pipelined
	// batched ballots, one leader per key. A lone claim is a batch of one.
	coalescer *consensus.Coalescer

	pool *serve.Pool // wired by start()

	ballots   atomic.Int64
	commits   atomic.Int64
	rforksIn  atomic.Int64
	rforksOut atomic.Int64
	rforkSeq  atomic.Int64

	rforkSvc transport.Handle
}

// clusterOptions selects how a daemon finds its peer group: a full
// static spec (-peers, every member known up front) or a seed list
// (-join, dynamic admission through the membership gossip).
type clusterOptions struct {
	node           ids.NodeID
	peers          peerSpec // static group; nil on the join path
	join           peerSpec // seed addresses; nil on the static path
	listen         string   // cluster listen address (join path; static takes it from peers)
	gossipInterval time.Duration
}

// newClusterState brings up the transport endpoint and voter. On the
// static path peers must include this node's own listen address; on the
// join path only the seeds are dialed and everyone else is admitted
// dynamically as the gossip reveals them.
func newClusterState(opts clusterOptions) (*clusterState, error) {
	node := opts.node
	listen := opts.listen
	if opts.peers != nil {
		l, ok := opts.peers[node]
		if !ok {
			return nil, fmt.Errorf("peer spec has no entry for this node (%d)", node)
		}
		listen = l
	}
	nc := &trace.NetCounters{}
	tcp, err := transport.NewTCP(transport.TCPOptions{Node: node, Listen: listen, Counters: nc})
	if err != nil {
		return nil, fmt.Errorf("cluster listen: %w", err)
	}
	var members []ids.NodeID
	var static, seeds []membership.Peer
	if opts.peers != nil {
		for id, addr := range opts.peers {
			members = append(members, id)
			static = append(static, membership.Peer{ID: id, Addr: addr})
			if id != node {
				tcp.AddPeer(id, addr)
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		sort.Slice(static, func(i, j int) bool { return static[i].ID < static[j].ID })
	} else {
		// Until the join handshake completes, this node is a group of
		// one; the first ViewUpdate re-derives the real quorum.
		members = []ids.NodeID{node}
		for id, addr := range opts.join {
			seeds = append(seeds, membership.Peer{ID: id, Addr: addr})
			tcp.AddPeer(id, addr)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i].ID < seeds[j].ID })
	}
	c := clusterFromTransport(tcp, members, nc)
	c.staticPeers = static
	c.seedPeers = seeds
	c.gossipInterval = opts.gossipInterval
	return c, nil
}

// clusterFromTransport wraps an already-meshed transport endpoint (the
// in-process test path; production goes through newClusterState).
func clusterFromTransport(tcp *transport.TCP, members []ids.NodeID, nc *trace.NetCounters) *clusterState {
	static := make([]membership.Peer, len(members))
	for i, id := range members {
		static[i] = membership.Peer{ID: id}
	}
	return &clusterState{
		node:        tcp.ID(),
		tcp:         tcp,
		voter:       consensus.StartVoter(tcp, ""),
		members:     members,
		nc:          nc,
		mc:          &membership.Counters{},
		staticPeers: static,
		windows:     make(map[ids.NodeID]*peerWindow),
		coalescer:   consensus.StartCoalescer(tcp, members, "", consensus.Config{Net: nc}),
	}
}

// start wires the pool in and launches the membership agent plus the
// rfork service. The agent starts here rather than in the constructor
// because its gossiped load hint reads the pool.
func (c *clusterState) start(pool *serve.Pool) {
	c.pool = pool
	// Bind the rfork port before anything can advertise this node: a
	// frame reaching an unbound port is dropped, and its sender, whose
	// Send succeeded, never runs the job locally instead.
	rforkIn := c.tcp.Bind(checkpoint.RForkPort)
	c.agent = membership.Start(c.tcp, membership.Config{
		SelfAddr:      c.tcp.Addr(),
		Static:        c.staticPeers,
		Join:          c.seedPeers,
		ProbeInterval: c.gossipInterval,
		Load: func() int32 {
			st := pool.Stats()
			return int32(st.Running + st.Queued)
		},
		OnView: c.onView,
		OnPeer: func(id ids.NodeID, addr string) {
			if id != c.node && addr != "" {
				c.tcp.AddPeer(id, addr)
			}
		},
		Counters: c.mc,
		Logf:     log.Printf,
	})
	c.rforkSvc = c.tcp.Spawn("rfork-svc", func(p transport.Proc) { c.serveRFork(p, rforkIn) })
}

// onView is the epoch-fenced reconfiguration hook, called from the
// membership agent whenever the view changes: fence the voter, hand the
// coalescer its new quorum, and forget the rfork windows of peers that
// left the view.
func (c *clusterState) onView(v membership.View) {
	c.voter.SetEpoch(v.Epoch)
	c.coalescer.SetView(v.Epoch, v.Members)
	inView := make(map[ids.NodeID]bool, len(v.Members))
	for _, id := range v.Members {
		inView[id] = true
	}
	c.membersMu.Lock()
	old := c.members
	c.members = append([]ids.NodeID(nil), v.Members...)
	sort.Slice(c.members, func(i, j int) bool { return c.members[i] < c.members[j] })
	c.membersMu.Unlock()
	for _, id := range old {
		if inView[id] || id == c.node {
			continue
		}
		c.winMu.Lock()
		delete(c.windows, id)
		c.winMu.Unlock()
	}
}

// membersSnapshot returns the current view's member list.
func (c *clusterState) membersSnapshot() []ids.NodeID {
	c.membersMu.Lock()
	defer c.membersMu.Unlock()
	return append([]ids.NodeID(nil), c.members...)
}

func (c *clusterState) close() {
	if c.agent != nil {
		// Voluntary departure: peers drop us on the Left update instead
		// of waiting out a suspicion timeout.
		c.agent.Leave()
		c.agent.Stop()
	}
	if c.rforkSvc != nil {
		c.rforkSvc.Kill()
	}
	c.coalescer.Stop()
	c.voter.Stop()
	c.tcp.Close()
}

// newClaim is the pool's commit arbiter: each job gets its own
// consensus key, so the block commits only once a quorum of the peer
// group has granted it. The claim goes through the node's coalescer:
// concurrent jobs share a quorum round, and a job's alternatives share
// one — the first to claim runs it, the rest are answered from it.
func (c *clusterState) newClaim(job serve.Job, id uint64) core.ClaimFunc {
	key := fmt.Sprintf("job/%d/%d", c.node, id)
	return func(w *core.World) bool {
		c.ballots.Add(1)
		won := c.coalescer.Claim(transport.Background(), key, w.PID()).Won
		if won {
			c.commits.Add(1)
		}
		return won
	}
}

// serveRFork admits forwarded jobs. Each frame is a submit request's
// JSON, checked as a POST /jobs body is (size cap, decode, buildJob)
// and submitted to the local pool under this node's own consensus key.
// A frame that fails a check is counted in rforksDropped: its origin has
// already answered its client 202, so the count is the only trace.
func (c *clusterState) serveRFork(p transport.Proc, inbox transport.Mailbox) {
	for {
		env, ok := inbox.Recv(p)
		if !ok {
			return
		}
		job, err := rforkJob(env.Payload)
		if err != nil {
			c.rforksDropped.Add(1)
			continue
		}
		if _, err := c.pool.Submit(job); err == nil {
			c.rforksIn.Add(1)
		}
	}
}

// rforkJob builds the job a forwarded frame asks for.
func rforkJob(payload any) (serve.Job, error) {
	body, ok := payload.([]byte)
	if !ok {
		return serve.Job{}, fmt.Errorf("rfork: payload %T, want []byte", payload)
	}
	if len(body) > maxSubmitBytes {
		return serve.Job{}, fmt.Errorf("rfork: %d-byte request over the %d-byte cap", len(body), maxSubmitBytes)
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return serve.Job{}, fmt.Errorf("rfork: %w", err)
	}
	return buildJob(req)
}

// peerWindow is the backpressure state for one rfork destination: sent
// counts jobs shipped since the peer's last load hint, so placement
// stops piling onto a peer whose gossiped occupancy is going stale.
type peerWindow struct {
	seq  int64 // gossip seq of the load hint the window was reset at
	sent int   // rforks shipped since that hint
}

// ringTarget picks an rfork destination by consistent-hashing the job
// lineage onto the membership ring — O(1) against gossiped state,
// where the old leastLoaded ran a query round-trip to every peer for
// every rfork. Keying by kind gives each lineage a stable home.
// Saturated or suspected owners are skipped in ring order; no
// admissible peer means run locally.
func (c *clusterState) ringTarget(kind string) (ids.NodeID, bool) {
	if c.agent == nil {
		return 0, false
	}
	st := c.pool.Stats()
	capacity := st.Workers + st.QueueDepth
	to, ok := c.agent.Pick("rfork/"+kind, func(m membership.Member) bool {
		if m.Node == c.node {
			return false
		}
		return c.admitWindow(m, capacity)
	})
	if !ok {
		c.rforkFallbacks.Add(1)
	}
	return to, ok
}

// admitWindow charges one rfork against the peer's inflight window:
// its gossiped load plus everything we shipped since that hint must
// stay under capacity. A fresher hint (higher gossip seq) resets the
// locally-charged count — the hint already covers what arrived.
func (c *clusterState) admitWindow(m membership.Member, capacity int) bool {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	w := c.windows[m.Node]
	if w == nil {
		w = &peerWindow{}
		c.windows[m.Node] = w
	}
	if m.Seq > w.seq {
		w.seq = m.Seq
		w.sent = 0
	}
	if int(m.Load)+w.sent >= capacity {
		return false
	}
	w.sent++
	return true
}

// rfork forwards a submit request to a peer: its JSON, as one raw
// []byte frame to the peer's rfork port. The paper's rfork ships a
// running process's checkpoint image (§5.1.2; E3 and E5 measure it); a
// job forwarded before it has run has no state beyond its request, so
// the request is all that crosses the wire. A request the peer would
// refuse for its size is not sent: the caller runs it locally.
func (c *clusterState) rfork(to ids.NodeID, req submitRequest) error {
	// Stamp the stitch ID before the request leaves this node: the
	// receiving daemon's flight recorder tags its timeline with it, so
	// the origin and the executing node's spans join on one key.
	if req.TraceID == "" {
		req.TraceID = fmt.Sprintf("n%d-r%d", c.node, c.rforkSeq.Add(1))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if len(body) > maxSubmitBytes {
		return fmt.Errorf("rfork: %d-byte request over the %d-byte cap", len(body), maxSubmitBytes)
	}
	if !c.tcp.Send(transport.Addr{Node: to, Port: checkpoint.RForkPort}, body) {
		return fmt.Errorf("rfork: send to node %d failed", to)
	}
	c.rforksOut.Add(1)
	return nil
}

// clusterView is the /metrics rendering of the peer group.
type clusterView struct {
	Node             ids.NodeID   `json:"node"`
	Members          []ids.NodeID `json:"members"`
	Quorum           int          `json:"quorum"`
	Ballots          int64        `json:"ballots"`
	ConsensusCommits int64        `json:"consensus_commits"`
	RForksIn         int64        `json:"rforks_in"`
	RForksOut        int64        `json:"rforks_out"`
	RForkFallbacks   int64        `json:"rfork_fallbacks"`
	RForksDropped    int64        `json:"rforks_dropped"`

	// Live membership: the epoch-fenced view the quorum derives from,
	// plus the failure detector's state counts and gossip accounting.
	Epoch          int64                       `json:"epoch"`
	MembersAlive   int                         `json:"members_alive"`
	MembersSuspect int                         `json:"members_suspect"`
	MembersDead    int                         `json:"members_dead"`
	RingNodes      int                         `json:"ring_nodes"`
	Gossip         membership.CountersSnapshot `json:"gossip"`

	Net trace.NetSnapshot `json:"net"`
}

func (c *clusterState) view() *clusterView {
	members := c.membersSnapshot()
	v := &clusterView{
		Node:             c.node,
		Members:          members,
		Quorum:           len(members)/2 + 1,
		Ballots:          c.ballots.Load(),
		ConsensusCommits: c.commits.Load(),
		RForksIn:         c.rforksIn.Load(),
		RForksOut:        c.rforksOut.Load(),
		RForkFallbacks:   c.rforkFallbacks.Load(),
		RForksDropped:    c.rforksDropped.Load(),
		Gossip:           c.mc.Snapshot(),
		Net:              c.nc.Snapshot(),
	}
	if c.agent != nil {
		v.Epoch = c.agent.Epoch()
		v.MembersAlive, v.MembersSuspect, v.MembersDead = c.agent.StatusCounts()
		v.RingNodes = c.agent.RingNodes()
		v.Quorum = c.coalescer.Quorum()
	}
	return v
}
