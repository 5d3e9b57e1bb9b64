// Package membership implements SWIM-style gossip membership for the
// altserved peer group: periodic ping / ping-req probes over
// transport.Endpoint, suspicion with bounded refutation timeouts,
// incarnation numbers, and piggybacked dissemination of joins, leaves,
// failures, and per-node load hints on the probe traffic itself. The
// paper anticipates exactly this failure surface: "communications
// problems or system failures may prevent this information from
// reaching the scheduling component of a remote system" (§3.2.1) — a
// static peer list cannot express a node that stopped answering, and
// polling every peer for load per rfork (the seed's leastLoaded) costs
// a round-trip the gossip already paid for.
//
// The package also carries a consistent-hash ring (ring.go) over the
// live view, keyed by job lineage, so rfork placement is an O(1)
// lookup biased by the gossiped load hints instead of an n-way poll.
//
// Like the consensus coalescer, the Agent is a single spawned
// transport proc with one mailbox: probes, acks, gossip, and epoch
// announcements all arrive as messages, and nothing blocks on a Go
// channel — the same code runs deterministically on the simulated
// cluster and on real TCP.
//
// View changes (a node joined, died, or left) bump a monotonically
// increasing epoch that the consensus layer uses to fence in-flight
// ballots during quorum reconfiguration: see consensus.Voter.SetEpoch
// and consensus.Coalescer.SetView.
package membership

import (
	"encoding/json"
	"fmt"
	"time"

	"altrun/internal/ids"
	"altrun/internal/transport"
)

// Port is the well-known port every membership agent binds.
const Port = "member/swim"

// Status is a member's health as this node believes it.
type Status uint8

const (
	// StatusAlive: answering probes (or vouched for by gossip).
	StatusAlive Status = iota
	// StatusSuspect: failed a probe round; still counted in the view
	// until the suspicion timeout so a slow node is not expelled by one
	// lost packet. A suspect refutes by gossiping a higher incarnation.
	StatusSuspect
	// StatusDead: suspicion expired without refutation. Dead members
	// leave the view (and the ring) and their epoch is fenced.
	StatusDead
	// StatusLeft: departed gracefully (announced its own leave).
	StatusLeft
)

// String renders the status for logs and /debug/members.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	case StatusLeft:
		return "left"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MarshalJSON renders the status as its name.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the name form (tests decode /metrics JSON).
func (s *Status) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "alive":
		*s = StatusAlive
	case "suspect":
		*s = StatusSuspect
	case "dead":
		*s = StatusDead
	case "left":
		*s = StatusLeft
	default:
		return fmt.Errorf("membership: unknown status %q", name)
	}
	return nil
}

// InView reports whether a member with this status counts toward the
// membership view (and the consensus quorum): alive and suspect do —
// a suspect is innocent until its timeout — dead and left do not.
func (s Status) InView() bool { return s == StatusAlive || s == StatusSuspect }

// Update is one piggybacked membership rumor: what some node learned
// about Node, stamped with Node's incarnation. Alive updates double as
// load-hint carriers: Seq is a per-origin freshness stamp so a stale
// relayed hint never overwrites a newer one.
type Update struct {
	Node        ids.NodeID
	Addr        string // transport dial address ("" on the sim fabric)
	Incarnation int64
	Status      Status
	Seq         int64 // origin-stamped freshness for Load and Addr
	Load        int32 // occupancy hint (running + queued jobs)
}

// Member is one row of the externally visible membership snapshot.
type Member struct {
	Node        ids.NodeID `json:"node"`
	Addr        string     `json:"addr,omitempty"`
	Incarnation int64      `json:"incarnation"`
	Status      Status     `json:"status"`
	Load        int32      `json:"load"`
	Seq         int64      `json:"seq"`
}

// View is the membership set at one epoch: the sorted node IDs whose
// status is in-view. The consensus layer derives its quorum size from
// len(Members) and fences ballots on Epoch.
type View struct {
	Epoch   int64        `json:"epoch"`
	Members []ids.NodeID `json:"members"`
}

// Peer seeds an agent with another node's identity and dial address.
type Peer struct {
	ID   ids.NodeID
	Addr string
}

// Protocol messages. Wire registration (the binary codec) lives in
// internal/transport/codec, next to consensus.
type (
	// Ping probes a member directly; the target answers Ack to Reply.
	Ping struct {
		Seq     int64
		Reply   transport.Addr
		Updates []Update
	}
	// PingReq asks a third node to probe Target on the origin's behalf
	// (the indirect probe of SWIM): the mediator forwards a Ping whose
	// Reply still names the origin, so the Ack comes straight back.
	PingReq struct {
		Seq     int64
		Target  ids.NodeID
		Reply   transport.Addr
		Updates []Update
	}
	// Ack answers a Ping (direct or mediated).
	Ack struct {
		Seq     int64
		Node    ids.NodeID
		Updates []Update
	}
	// Gossip carries updates outside the probe cycle. Join asks the
	// receiver to answer with its full member table — the join
	// handshake a -join seed serves.
	Gossip struct {
		Join    bool
		Updates []Update
	}
	// EpochChange announces a view change (join, death, leave) so every
	// node converges on the fencing epoch without waiting a full gossip
	// round. Updates carries the cause.
	EpochChange struct {
		Epoch   int64
		Updates []Update
	}
)

// updatesWireSize estimates the encoded size of an update list.
func updatesWireSize(us []Update) int {
	n := 4
	for _, u := range us {
		n += 20 + len(u.Addr)
	}
	return n
}

// WireSize implements transport.WireSizer for the simulator's byte
// accounting (gossip payloads are the one variable-size membership
// message family).
func (m Ping) WireSize() int { return 12 + len(m.Reply.Port) + updatesWireSize(m.Updates) }

// WireSize implements transport.WireSizer.
func (m PingReq) WireSize() int { return 16 + len(m.Reply.Port) + updatesWireSize(m.Updates) }

// WireSize implements transport.WireSizer.
func (m Ack) WireSize() int { return 12 + updatesWireSize(m.Updates) }

// WireSize implements transport.WireSizer.
func (m Gossip) WireSize() int { return 6 + updatesWireSize(m.Updates) }

// WireSize implements transport.WireSizer.
func (m EpochChange) WireSize() int { return 12 + updatesWireSize(m.Updates) }

// Config tunes an Agent.
type Config struct {
	// SelfAddr is this node's dial address, gossiped so peers can admit
	// it dynamically ("" on the sim fabric).
	SelfAddr string
	// Static seeds the member table with a known peer group (the
	// -peers compatibility path): all start alive at incarnation 0.
	Static []Peer
	// Join lists seed nodes to announce ourselves to (the -join path).
	// The agent re-announces every probe interval until some peer
	// answers with its member table.
	Join []Peer

	// ProbeInterval is the period of the failure-detector cycle.
	ProbeInterval time.Duration
	// ProbeTimeout bounds the direct probe before indirect ping-reqs
	// fire; the probe fails at 2×ProbeTimeout. Clamped to at most
	// ProbeInterval/2.
	ProbeTimeout time.Duration
	// IndirectProbes is how many mediators a failed direct probe asks.
	IndirectProbes int
	// SuspicionMult sets the suspicion timeout as a multiple of
	// ProbeInterval: how long a suspect has to refute before it is
	// declared dead.
	SuspicionMult int
	// MaxPiggyback bounds membership updates carried per message.
	MaxPiggyback int
	// RetransmitMult scales how many times each update is piggybacked
	// before it is dropped from the rumor queue (×⌈log₂(n+1)⌉).
	RetransmitMult int
	// RingReplicas is the virtual-node count per member on the
	// placement ring.
	RingReplicas int
	// Seed drives the agent's probe-order shuffle (0 = derived from the
	// node ID, keeping the simulator deterministic).
	Seed int64

	// Load supplies the local occupancy hint gossiped with every
	// outgoing message (nil = always 0).
	Load func() int32
	// OnView is called (from the agent proc, without internal locks
	// held) when the view changes or a higher epoch is adopted.
	OnView func(View)
	// OnPeer is called when a new member's dial address is learned —
	// the dynamic-admission hook (tcp.AddPeer).
	OnPeer func(id ids.NodeID, addr string)
	// Counters receives gossip accounting (nil ok).
	Counters *Counters
	// Logf, when set, receives membership transitions (suspicions,
	// deaths, refutations) for the daemon log.
	Logf func(format string, args ...any)
}

// Defaults used when Config fields are zero.
const (
	DefaultProbeInterval  = 200 * time.Millisecond
	DefaultIndirectProbes = 2
	DefaultSuspicionMult  = 5
	DefaultMaxPiggyback   = 8
	DefaultRetransmitMult = 3
	DefaultRingReplicas   = 64
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 4
	}
	if c.ProbeTimeout > c.ProbeInterval/2 {
		c.ProbeTimeout = c.ProbeInterval / 2
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = DefaultIndirectProbes
	}
	if c.SuspicionMult <= 0 {
		c.SuspicionMult = DefaultSuspicionMult
	}
	if c.MaxPiggyback <= 0 {
		c.MaxPiggyback = DefaultMaxPiggyback
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = DefaultRetransmitMult
	}
	if c.RingReplicas <= 0 {
		c.RingReplicas = DefaultRingReplicas
	}
	return c
}

// SuspicionTimeout returns how long a suspect has to refute.
func (c Config) SuspicionTimeout() time.Duration {
	return time.Duration(c.SuspicionMult) * c.ProbeInterval
}
