// Package cluster simulates the distributed system the paper's
// synchronization and remote-fork mechanisms run on: nodes connected by
// reliable FIFO links (§3.1) whose failures — "communications problems
// or system failures may prevent this information from reaching the
// scheduling component of a remote system" (§3.2.1) — can be injected
// as partitions or probabilistic message drops for the consensus
// experiments (E10).
//
// FIFO is guaranteed per ordered node pair because link latency is
// fixed per link and the simulator breaks ties by schedule order.
//
// Cluster implements transport.Transport and Node implements
// transport.Endpoint, so the consensus and checkpoint-shipping
// protocols written against those interfaces run unmodified on the
// simulator — deterministically — and on the real TCP transport.
package cluster

import (
	"math/rand"
	"time"

	"altrun/internal/ids"
	"altrun/internal/sim"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// Addr names a mailbox: a port on a node.
type Addr = transport.Addr

// Envelope is what arrives in a mailbox.
type Envelope = transport.Envelope

// Cluster is a set of simulated nodes. It is used only from within one
// sim.Engine, so it needs no locking.
type Cluster struct {
	e           *sim.Engine
	gen         *ids.Generator
	rng         *rand.Rand
	nodes       map[ids.NodeID]*Node
	partitioned map[[2]ids.NodeID]bool
	dropRate    float64
	nc          *trace.NetCounters

	sent    int
	dropped int
}

// New returns an empty cluster on engine e. seed drives the
// deterministic message-drop process.
func New(e *sim.Engine, seed int64) *Cluster {
	return &Cluster{
		e:           e,
		gen:         &ids.Generator{},
		rng:         rand.New(rand.NewSource(seed)),
		nodes:       make(map[ids.NodeID]*Node),
		partitioned: make(map[[2]ids.NodeID]bool),
		nc:          &trace.NetCounters{},
	}
}

// Engine returns the cluster's simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.e }

// Sent returns the number of messages submitted for delivery.
func (c *Cluster) Sent() int { return c.sent }

// Dropped returns the number of messages lost to partitions or drops.
func (c *Cluster) Dropped() int { return c.dropped }

// Counters returns the cluster's message/byte accounting. Bytes are
// estimated via transport.PayloadSize (the simulator never
// serializes).
func (c *Cluster) Counters() *trace.NetCounters { return c.nc }

// SetDropRate makes each inter-node message independently lost with
// probability r (0 disables). Local (same-node) delivery never drops.
func (c *Cluster) SetDropRate(r float64) { c.dropRate = r }

// Close is a no-op: the engine owns the simulated processes and the
// cluster holds no external resources. It exists to satisfy
// transport.Transport.
func (c *Cluster) Close() {}

// Node is one machine in the cluster.
type Node struct {
	c       *Cluster
	id      ids.NodeID
	profile sim.MachineProfile
	ports   map[string]*sim.Chan
}

// AddNode creates a node with the given machine profile.
func (c *Cluster) AddNode(profile sim.MachineProfile) *Node {
	n := &Node{
		c:       c,
		id:      c.gen.NextNode(),
		profile: profile,
		ports:   make(map[string]*sim.Chan),
	}
	c.nodes[n.id] = n
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() ids.NodeID { return n.id }

// Profile returns the node's machine profile.
func (n *Node) Profile() sim.MachineProfile { return n.profile }

// mailbox adapts a sim.Chan of Envelopes to transport.Mailbox.
type mailbox struct {
	ch *sim.Chan
}

// Recv blocks the simulated process until a message arrives.
func (m mailbox) Recv(p transport.Proc) (transport.Envelope, bool) {
	return m.RecvTimeout(p, -1)
}

// RecvTimeout is Recv bounded by d (virtual time); d < 0 waits
// forever. ok is false if the timeout fired first.
func (m mailbox) RecvTimeout(p transport.Proc, d time.Duration) (transport.Envelope, bool) {
	v, ok := m.ch.RecvTimeout(p.(*sim.Proc), d)
	if !ok {
		return transport.Envelope{}, false
	}
	env, isEnv := v.(Envelope)
	return env, isEnv
}

// Chan returns the mailbox's underlying sim channel (tests inspect
// queue lengths through it).
func (m mailbox) Chan() *sim.Chan { return m.ch }

// Bind creates (or returns) the mailbox for a named port on this node.
func (n *Node) Bind(port string) transport.Mailbox {
	if ch, ok := n.ports[port]; ok {
		return mailbox{ch}
	}
	ch := n.c.e.NewChan()
	n.ports[port] = ch
	return mailbox{ch}
}

// Unbind removes a port (late messages to it are dropped).
func (n *Node) Unbind(port string) { delete(n.ports, port) }

// Send submits payload from this node. See Cluster.Send.
func (n *Node) Send(to Addr, payload any) bool { return n.c.Send(n, to, payload) }

// handle adapts a spawned sim process to transport.Handle.
type handle struct {
	e *sim.Engine
	p *sim.Proc
}

// Kill stops the process (idempotent: killing a finished process is a
// no-op in the engine).
func (h handle) Kill() { h.e.Kill(h.p) }

// Proc returns the underlying sim process (fault-injection helpers in
// tests and experiments address processes directly).
func (h handle) Proc() *sim.Proc { return h.p }

// Spawn starts a simulated service process on this node.
func (n *Node) Spawn(name string, fn func(p transport.Proc)) transport.Handle {
	proc := n.c.e.Spawn(name, func(sp *sim.Proc) { fn(sp) })
	return handle{n.c.e, proc}
}

// Now returns the virtual clock.
func (n *Node) Now() time.Time { return n.c.e.Now() }

// Nodes returns all node IDs in creation order... order is by id.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for id := ids.NodeID(1); int(id) <= len(c.nodes); id++ {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Endpoints returns all nodes as transport endpoints, in node-ID
// order.
func (c *Cluster) Endpoints() []transport.Endpoint {
	nodes := c.Nodes()
	out := make([]transport.Endpoint, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

// Endpoint returns the endpoint for a node, if present.
func (c *Cluster) Endpoint(id ids.NodeID) (transport.Endpoint, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

func pairKey(a, b ids.NodeID) [2]ids.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]ids.NodeID{a, b}
}

// Partition cuts the (bidirectional) link between a and b. All lookups
// go through pairKey, so the cut applies to both directions regardless
// of argument order.
func (c *Cluster) Partition(a, b ids.NodeID) { c.partitioned[pairKey(a, b)] = true }

// Heal restores the link between a and b.
func (c *Cluster) Heal(a, b ids.NodeID) { delete(c.partitioned, pairKey(a, b)) }

// Isolate partitions node a from every other node: a can neither send
// nor receive (links are bidirectional under pairKey).
func (c *Cluster) Isolate(a ids.NodeID) {
	for id := range c.nodes {
		if id != a {
			c.Partition(a, id)
		}
	}
}

// Send delivers payload to the addressed mailbox after the link
// latency. Same-node sends are immediate and never lost. Lost messages
// vanish silently, as on a real network. Send returns whether the
// message was submitted to a live link (callers normally ignore this;
// tests use it).
func (c *Cluster) Send(from *Node, to Addr, payload any) bool {
	c.sent++
	c.nc.MsgsSent.Add(1)
	c.nc.BytesSent.Add(int64(transport.PayloadSize(payload)))
	dest, ok := c.nodes[to.Node]
	if !ok {
		c.drop()
		return false
	}
	env := Envelope{From: from.id, To: to, Payload: payload}
	if from.id == to.Node {
		if ch, bound := dest.ports[to.Port]; bound {
			c.deliver(ch, env)
			return true
		}
		c.drop()
		return false
	}
	if c.partitioned[pairKey(from.id, to.Node)] {
		c.drop()
		return false
	}
	if c.dropRate > 0 && c.rng.Float64() < c.dropRate {
		c.drop()
		return false
	}
	latency := from.profile.NetLatency
	if dest.profile.NetLatency > latency {
		latency = dest.profile.NetLatency
	}
	c.e.After(latency, func() {
		if ch, bound := dest.ports[to.Port]; bound {
			c.deliver(ch, env)
		}
	})
	return true
}

func (c *Cluster) drop() {
	c.dropped++
	c.nc.Dropped.Add(1)
}

func (c *Cluster) deliver(ch *sim.Chan, env Envelope) {
	c.nc.MsgsRecv.Add(1)
	c.nc.BytesRecv.Add(int64(transport.PayloadSize(env.Payload)))
	ch.Send(env)
}

// Broadcast sends payload to the same port on every node (including the
// sender's own, if bound).
func (c *Cluster) Broadcast(from *Node, port string, payload any) {
	for _, n := range c.Nodes() {
		c.Send(from, Addr{Node: n.id, Port: port}, payload)
	}
}

// TransferCost models moving `bytes` of data from n to a peer:
// latency + per-byte cost (used by rfork, E5).
func (n *Node) TransferCost(bytes int) time.Duration {
	return n.profile.NetLatency + time.Duration(bytes)*n.profile.NetPerByte
}
