// Package transport abstracts the network fabric the paper's
// distributed mechanisms run on: addressed endpoints exchanging
// reliable-FIFO messages (§3.1 "IPC is assumed to behave reliably (no
// lost or duplicated messages) and FIFO"), with hooks for the failures
// §3.2.1 cares about — partitions and message loss — and byte
// accounting for the transfer-cost analysis of §4.4.
//
// Two implementations exist:
//
//   - internal/cluster: the deterministic simulated cluster. Every
//     experiment (E5, E10, ...) runs on it, bit-for-bit reproducibly.
//   - TCP (this package): a real transport with length-prefixed frames
//     in the binary codec of wire.go (a payload type with no registered
//     codec is not sent), per-peer reconnect with backoff,
//     and connect/send timeouts, used by cmd/altserved peer groups and
//     distbench.
//
// consensus, checkpoint shipping (rfork) and membership are written
// against these interfaces only, so the same protocol code is exercised
// by the simulator and by live daemons.
package transport

import (
	"fmt"
	"time"

	"altrun/internal/ids"
	"altrun/internal/trace"
)

// Addr names a mailbox: a port on a node.
type Addr struct {
	Node ids.NodeID
	Port string
}

// String renders the address as "n3:port".
func (a Addr) String() string { return fmt.Sprintf("%v:%s", a.Node, a.Port) }

// Envelope is what arrives in a mailbox.
type Envelope struct {
	From    ids.NodeID
	To      Addr
	Payload any
}

// Proc is the caller context blocking operations run under. The
// simulator passes *sim.Proc (Sleep advances virtual time); real
// transports pass a goroutine-backed proc (Sleep is wall-clock and
// returns early if the proc is killed).
type Proc interface {
	Sleep(d time.Duration)
}

// Waiter is optionally implemented by real-transport procs; Done is
// closed when the proc is killed, unblocking mailbox receives.
type Waiter interface {
	Done() <-chan struct{}
}

// Mailbox is a bound port's receive side. ok is false when the wait
// timed out, the proc was killed, or the transport closed — protocol
// loops exit on !ok.
type Mailbox interface {
	Recv(p Proc) (Envelope, bool)
	RecvTimeout(p Proc, d time.Duration) (Envelope, bool)
}

// Handle controls a spawned service process.
type Handle interface {
	// Kill stops the process. Safe to call more than once.
	Kill()
}

// Endpoint is one node's attachment to the fabric: its identity, its
// ports, and its send side.
type Endpoint interface {
	// ID returns the node's identifier.
	ID() ids.NodeID
	// Bind creates (or returns) the mailbox for a named port.
	Bind(port string) Mailbox
	// Unbind removes a port; late messages to it are dropped.
	Unbind(port string)
	// Send submits payload to the addressed mailbox. Delivery is FIFO
	// per (sender, receiver) pair; lost messages vanish silently, as on
	// a real network. The return value reports whether the message was
	// submitted to a live link (tests use it; protocols ignore it).
	Send(to Addr, payload any) bool
	// Spawn starts a service process on this node (a voter, a page
	// server). The process should exit when a mailbox receive returns
	// !ok.
	Spawn(name string, fn func(p Proc)) Handle
	// Now is the fabric's clock: virtual time in the simulator, wall
	// clock for real transports. Protocol deadlines must use it.
	Now() time.Time
	// TransferCost models moving `bytes` to a peer: latency + per-byte
	// cost in the simulator, zero for real transports (the wire itself
	// is the cost).
	TransferCost(bytes int) time.Duration
}

// Transport is a whole fabric: the endpoints plus fault injection and
// accounting. The simulated cluster implements it directly; for TCP a
// fleet of per-process transports is assembled by transporttest.
type Transport interface {
	// Endpoints returns all endpoints in node-ID order.
	Endpoints() []Endpoint
	// Endpoint returns the endpoint for a node, if present.
	Endpoint(id ids.NodeID) (Endpoint, bool)
	// Partition cuts the (bidirectional) link between a and b.
	Partition(a, b ids.NodeID)
	// Heal restores the link between a and b.
	Heal(a, b ids.NodeID)
	// Isolate partitions node a from every other node.
	Isolate(a ids.NodeID)
	// SetDropRate makes each inter-node message independently lost with
	// probability r (0 disables). Same-node delivery never drops.
	SetDropRate(r float64)
	// Counters returns the fabric's message/byte accounting.
	Counters() *trace.NetCounters
	// Close releases the fabric's resources (listeners, connections,
	// service processes). The simulator's Close is a no-op: the engine
	// owns its processes.
	Close()
}

// WireSizer lets variable-size payload types (a batched ballot, a
// checkpoint delta) report a wire-size estimate to the simulator's byte
// accounting, which otherwise charges a flat small-struct rate.
type WireSizer interface {
	WireSize() int
}

// PayloadSize estimates a payload's wire size for the simulator's byte
// accounting (the real transport counts actual frame bytes). Only the
// shapes the protocols send need to be cheap and sensible here.
func PayloadSize(payload any) int {
	switch v := payload.(type) {
	case nil:
		return 0
	case []byte:
		return len(v)
	case string:
		return len(v)
	case WireSizer:
		return v.WireSize()
	default:
		// Control messages (vote requests, page requests, ...) are
		// small fixed-size structs.
		return 64
	}
}

// background is the Proc for callers not running under any scheduler
// (an HTTP handler claiming consensus, a test goroutine).
type background struct{}

func (background) Sleep(d time.Duration) { time.Sleep(d) }

// Background returns a Proc whose Sleep is a plain wall-clock sleep.
func Background() Proc { return background{} }

// done returns p's kill channel if it has one, else nil (blocks
// forever in a select).
func done(p Proc) <-chan struct{} {
	if w, ok := p.(Waiter); ok {
		return w.Done()
	}
	return nil
}
