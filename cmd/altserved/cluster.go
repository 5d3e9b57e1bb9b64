package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	appchoo "altrun/apps/choo"
	appstm "altrun/apps/stm"
	"altrun/internal/checkpoint"
	"altrun/internal/consensus"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/membership"
	"altrun/internal/page"
	"altrun/internal/serve"
	istm "altrun/internal/stm"
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
// shipped as a checkpoint image — onto a peer chosen by
// consistent-hash placement over the live membership view, biased by
// the load hints the agents gossip on probe traffic.
//
// Wire-codec tags 200/201 were the polled load-query protocol, retired
// now that occupancy rides the membership gossip; they stay reserved so
// a future message type can't collide with old peers on the wire.

const (
	// rfork delta shipping writes each forwarded request into a
	// fixed-size per-peer arena so successive jobs diff page-by-page
	// against a peer-cached base image; requests that outgrow the arena
	// fall back to a one-off legacy full ship.
	rforkPageSize   = 512
	rforkArenaSize  = 16 << 10
	rforkLineage    = "rfork/json"
	rforkJobTimeout = 10 * time.Second
)

// peerSpec maps node IDs to cluster listen addresses ("1=host:port,...").
type peerSpec map[ids.NodeID]string

func parsePeers(s string) (peerSpec, error) {
	spec := peerSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want <node>=<host:port>", part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(id), 10, 32)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("peer %q: bad node id", part)
		}
		spec[ids.NodeID(n)] = strings.TrimSpace(addr)
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
	suspicionMult  int

	// Backpressure-aware rfork placement: per-peer inflight window,
	// reset whenever a fresher gossiped load hint arrives.
	winMu   sync.Mutex
	windows map[ids.NodeID]*peerWindow

	rforkFallbacks atomic.Int64 // rfork requests that ran locally instead

	// Every commit claim routes through the node's coalescer: pipelined
	// batched ballots, one leader per key. A lone claim is a batch of one.
	coalescer *consensus.Coalescer

	// Delta checkpoint shipping for rfork.
	shipper  *checkpoint.Shipper
	receiver *checkpoint.Receiver
	arenaMu  sync.Mutex
	arenas   map[ids.NodeID]*rforkArena

	pool *serve.Pool // wired by start()

	ballots   atomic.Int64
	commits   atomic.Int64
	rforksIn  atomic.Int64
	rforksOut atomic.Int64
	rforkSeq  atomic.Int64

	rforkSvc transport.Handle
	ctlSvc   transport.Handle
}

// rforkArena is the persistent per-destination capture space: each
// forwarded request overwrites the previous one, so the space's
// accumulated dirty-page set bounds the delta diff.
type rforkArena struct {
	space   *mem.AddressSpace
	prevLen int64
	dirty   []int64 // reused DirtyPageList buffer
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
	suspicionMult  int
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
	c.suspicionMult = opts.suspicionMult
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
		shipper:     checkpoint.NewShipper(tcp, nc),
		receiver:    checkpoint.NewReceiver(tcp, nc, 0),
		arenas:      make(map[ids.NodeID]*rforkArena),
	}
}

// start wires the pool in and launches the membership agent plus the
// load, rfork, and ship-control services. The agent starts here rather
// than in the constructor because its gossiped load hint reads the
// pool.
func (c *clusterState) start(pool *serve.Pool) {
	c.pool = pool
	// Bind the rfork ports before anything can advertise this node: a
	// frame reaching an unbound port is dropped, and its sender, whose
	// Send succeeded, never runs the job locally instead.
	rforkIn := c.tcp.Bind(checkpoint.RForkPort)
	ctlIn := c.tcp.Bind(checkpoint.RForkCtlPort)
	c.agent = membership.Start(c.tcp, membership.Config{
		SelfAddr:      c.tcp.Addr(),
		Static:        c.staticPeers,
		Join:          c.seedPeers,
		ProbeInterval: c.gossipInterval,
		SuspicionMult: c.suspicionMult,
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
	c.ctlSvc = c.tcp.Spawn("rfork-ctl", func(p transport.Proc) {
		checkpoint.ServeNaks(p, ctlIn, c.shipper)
	})
}

// onView is the epoch-fenced reconfiguration hook, called from the
// membership agent whenever the view changes: fence the voter, hand the
// coalescer its new quorum, and tear down shipping state toward peers
// that left the view (their cached bases and sessions are dead weight —
// a rejoin restarts each lineage with a fresh full base).
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
		if n := c.shipper.DropPeer(id); n > 0 {
			log.Printf("cluster: dropped %d rfork session(s) toward departed node %d", n, id)
		}
		c.receiver.InvalidateNode(id)
		c.arenaMu.Lock()
		delete(c.arenas, id)
		c.arenaMu.Unlock()
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
	// Tell peers the lineage's base dies with us: a restarted daemon
	// starts a fresh epoch, and a stale cached base must not satisfy it.
	c.shipper.InvalidateLineage(rforkLineage)
	if c.agent != nil {
		// Voluntary departure: peers drop us on the Left update instead
		// of waiting out a suspicion timeout.
		c.agent.Leave()
		c.agent.Stop()
	}
	if c.rforkSvc != nil {
		c.rforkSvc.Kill()
	}
	if c.ctlSvc != nil {
		c.ctlSvc.Kill()
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

// serveRFork receives shipped jobs: a checkpoint image whose address
// space holds the JSON submit request. Images arrive as legacy full
// ships ([]byte), delta-shipping full bases, or deltas against a cached
// base — the Receiver reconstructs all three (NAKing deltas whose base
// it lacks). The request is re-read from the restored space and the job
// admitted to the local pool under this node's own consensus key.
func (c *clusterState) serveRFork(p transport.Proc, inbox transport.Mailbox) {
	for {
		env, ok := inbox.Recv(p)
		if !ok {
			return
		}
		// Typed rfork payloads (wire tags 202/203) carry the job spec
		// itself; the executing node rebuilds the job from it directly,
		// skipping the checkpoint-image restore the JSON path needs.
		switch spec := env.Payload.(type) {
		case istm.TxnSpec:
			if _, err := c.pool.Submit(appstm.JobFromSpec(spec)); err == nil {
				c.rforksIn.Add(1)
			}
			continue
		case appchoo.ProgSpec:
			job, err := spec.Job()
			if err != nil {
				continue
			}
			if _, err := c.pool.Submit(job); err == nil {
				c.rforksIn.Add(1)
			}
			continue
		}
		img, ok := c.receiver.Handle(env)
		if !ok {
			continue
		}
		req, err := requestFromImage(img)
		if err != nil {
			continue
		}
		job, err := buildJob(req)
		if err != nil {
			continue
		}
		if _, err := c.pool.Submit(job); err == nil {
			c.rforksIn.Add(1)
		}
	}
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
// every rfork. Keying by kind gives each lineage a stable home, which
// is exactly the affinity the delta shipper's cached bases want.
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

// rfork ships a submit request to a peer as a checkpoint image: the
// JSON request is written into an address space, captured, and sent
// over the transport exactly like a migrating process (§5.1.2's rfork).
func (c *clusterState) rfork(to ids.NodeID, id uint64, req submitRequest) error {
	// Typed fast path: stm and choo jobs have first-class spec codecs,
	// so the spec itself crosses the wire — no image capture, no arena,
	// no JSON. (Specs carry no TraceID; cross-node timeline stitching
	// stays a JSON-path feature.)
	switch req.Kind {
	case "stm":
		if !c.tcp.Send(transport.Addr{Node: to, Port: checkpoint.RForkPort}, stmSpecFrom(req)) {
			return fmt.Errorf("rfork: typed send to node %d failed", to)
		}
		c.rforksOut.Add(1)
		return nil
	case "choo":
		if !c.tcp.Send(transport.Addr{Node: to, Port: checkpoint.RForkPort}, chooSpecFrom(req)) {
			return fmt.Errorf("rfork: typed send to node %d failed", to)
		}
		c.rforksOut.Add(1)
		return nil
	}
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
	control := map[string]int64{"len": int64(len(body))}
	if len(body) > rforkArenaSize {
		// Oversized request: one-off legacy full ship in a throwaway
		// space (no lineage, no delta economics to exploit).
		store := page.NewStore(rforkPageSize)
		space := mem.New(store, int64(len(body)))
		if err := space.WriteAt(body, 0); err != nil {
			return err
		}
		img, err := checkpoint.Capture(ids.PID(id+1), "rfork-job", space, control)
		if err != nil {
			return err
		}
		if _, err := checkpoint.Ship(transport.Background(), c.tcp, to, img); err != nil {
			return err
		}
		c.rforksOut.Add(1)
		return nil
	}
	c.arenaMu.Lock()
	ar := c.arenas[to]
	if ar == nil {
		ar = &rforkArena{space: mem.New(page.NewStore(rforkPageSize), rforkArenaSize)}
		c.arenas[to] = ar
	}
	if err := ar.space.WriteAt(body, 0); err != nil {
		c.arenaMu.Unlock()
		return err
	}
	// Zero the tail the previous request wrote past this one's length, so
	// the captured image depends only on the current body.
	if n := int64(len(body)); n < ar.prevLen {
		if err := ar.space.WriteAt(make([]byte, ar.prevLen-n), n); err != nil {
			c.arenaMu.Unlock()
			return err
		}
	}
	ar.prevLen = int64(len(body))
	img, err := checkpoint.Capture(ids.PID(id+1), "rfork-job", ar.space, control)
	if err != nil {
		c.arenaMu.Unlock()
		return err
	}
	// The dirty list accumulates over the arena's whole life — exactly
	// the superset of pages that can differ from any base the peer holds.
	ar.dirty = ar.space.DirtyPageList(ar.dirty[:0])
	_, _, err = c.shipper.Ship(transport.Background(), to, rforkLineage, img, ar.dirty)
	c.arenaMu.Unlock()
	if err != nil {
		return err
	}
	c.rforksOut.Add(1)
	return nil
}

// requestFromImage restores a shipped image and re-reads the JSON
// request embedded in its address space.
func requestFromImage(img *checkpoint.Image) (submitRequest, error) {
	var req submitRequest
	space, err := img.Restore(page.NewStore(img.PageSize))
	if err != nil {
		return req, err
	}
	n := img.Control["len"]
	if n <= 0 || n > img.SpaceSize {
		return req, fmt.Errorf("rfork image: bad payload length %d", n)
	}
	body := make([]byte, n)
	if err := space.ReadAt(body, 0); err != nil {
		return req, err
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("rfork image: %w", err)
	}
	return req, nil
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
	RForkBases       int          `json:"rfork_cached_bases"`

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
		RForkBases:       c.receiver.CachedBases(),
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
