package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"altrun/internal/ids"
	"altrun/internal/trace"
)

// TCP is the real transport: one per process, representing that
// process's node. Frames are length-prefixed, hand-rolled binary for
// registered payload types (see wire.go); each peer gets a
// dedicated writer goroutine with reconnect-and-backoff, so sends
// never block protocol code and stay FIFO per peer. Fault injection
// (partition, drop rate) is applied at this node's edges, which is
// what loopback tests need; TCPFleet lifts it to whole-fabric
// semantics.
//
// Delivery guarantees match the simulator's: FIFO per (sender,
// receiver) pair while a connection lives, and silent loss otherwise —
// messages queued for an unreachable peer are retried with backoff,
// but a full queue or a closed transport drops.

// TCPOptions configures NewTCP. Zero values get defaults.
type TCPOptions struct {
	// Node is this process's node identity (required, > 0).
	Node ids.NodeID
	// Listen is the listen address; "127.0.0.1:0" picks a free port
	// (read it back with Addr).
	Listen string
	// Counters receives message/byte accounting (nil allocates one).
	Counters *trace.NetCounters
	// DialTimeout bounds one connect attempt (default 2s).
	DialTimeout time.Duration
	// SendTimeout bounds one frame write (default 5s).
	SendTimeout time.Duration
	// ReconnectMin/Max bound the redial backoff (default 50ms..2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// QueueDepth is the per-peer outbound queue (default 1024 frames);
	// a full queue drops, it never blocks the sender.
	QueueDepth int
	// Seed drives the drop-injection process (tests).
	Seed int64
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.Counters == nil {
		o.Counters = &trace.NetCounters{}
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = 5 * time.Second
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// maxFrame bounds one frame (a shipped checkpoint image is the largest
// legitimate payload).
const maxFrame = 256 << 20

// TCP implements Endpoint for one live process. It also implements
// the fault-injection half of Transport for its own edges.
type TCP struct {
	opts TCPOptions
	node ids.NodeID
	nc   *trace.NetCounters
	ln   net.Listener
	// dial opens the outbound connection to a peer; tests swap it to cut
	// a connection at a byte of their choosing.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu          sync.Mutex
	ports       map[string]*tcpMailbox
	peers       map[ids.NodeID]*tcpPeer
	partitioned map[ids.NodeID]bool
	dropRate    float64
	rng         *rand.Rand
	procs       map[*tcpHandle]struct{}
	conns       map[net.Conn]struct{}
	closed      bool

	done chan struct{}
	wg   sync.WaitGroup // accept loop + connection readers
}

// NewTCP opens the listener and starts accepting. Register peers with
// AddPeer before (or after) sending to them.
func NewTCP(opts TCPOptions) (*TCP, error) {
	opts = opts.withDefaults()
	if opts.Node <= 0 {
		return nil, fmt.Errorf("transport: TCP needs a valid node id")
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", opts.Listen, err)
	}
	t := &TCP{
		opts: opts,
		node: opts.Node,
		nc:   opts.Counters,
		ln:   ln,
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		ports:       make(map[string]*tcpMailbox),
		peers:       make(map[ids.NodeID]*tcpPeer),
		partitioned: make(map[ids.NodeID]bool),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		procs:       make(map[*tcpHandle]struct{}),
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// AddPeer registers a peer's dial address. Re-registering replaces the
// address for future connections.
func (t *TCP) AddPeer(id ids.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || id == t.node {
		return
	}
	if p, ok := t.peers[id]; ok {
		p.setAddr(addr)
		return
	}
	p := newTCPPeer(t, id, addr)
	t.peers[id] = p
}

// Counters returns the transport's accounting.
func (t *TCP) Counters() *trace.NetCounters { return t.nc }

// ID returns this process's node identity.
func (t *TCP) ID() ids.NodeID { return t.node }

// Now returns the wall clock.
func (t *TCP) Now() time.Time { return time.Now() }

// TransferCost is zero: the real wire charges for itself.
func (t *TCP) TransferCost(bytes int) time.Duration { return 0 }

// Bind creates (or returns) the mailbox for a named port.
func (t *TCP) Bind(port string) Mailbox {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mb, ok := t.ports[port]; ok {
		return mb
	}
	mb := newTCPMailbox()
	t.ports[port] = mb
	return mb
}

// Unbind removes a port; late messages to it are dropped.
func (t *TCP) Unbind(port string) {
	t.mu.Lock()
	mb := t.ports[port]
	delete(t.ports, port)
	t.mu.Unlock()
	if mb != nil {
		mb.close()
	}
}

// Send frames payload and queues it for the peer. Same-node sends
// deliver directly and never drop (unless the port is unbound).
func (t *TCP) Send(to Addr, payload any) bool {
	t.nc.MsgsSent.Add(1)
	if to.Node == t.node {
		t.mu.Lock()
		mb := t.ports[to.Port]
		t.mu.Unlock()
		if mb == nil {
			t.nc.Dropped.Add(1)
			return false
		}
		t.nc.BytesSent.Add(int64(PayloadSize(payload)))
		t.deliver(Envelope{From: t.node, To: to, Payload: payload})
		return true
	}
	t.mu.Lock()
	peer := t.peers[to.Node]
	cut := t.partitioned[to.Node]
	lose := t.dropRate > 0 && t.rng.Float64() < t.dropRate
	t.mu.Unlock()
	if peer == nil || cut || lose {
		t.nc.Dropped.Add(1)
		return false
	}
	frame, err := encodeFrame(Envelope{From: t.node, To: to, Payload: payload}, t.nc)
	if err != nil {
		t.nc.Dropped.Add(1)
		return false
	}
	t.nc.BytesSent.Add(int64(len(*frame)))
	if !peer.enqueue(frame) {
		putFrame(frame)
		t.nc.Dropped.Add(1)
		return false
	}
	return true
}

// Spawn starts a service goroutine whose Proc is killable.
func (t *TCP) Spawn(name string, fn func(p Proc)) Handle {
	h := &tcpHandle{proc: &tcpProc{done: make(chan struct{})}}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		h.Kill()
		return h
	}
	t.procs[h] = struct{}{}
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		fn(h.proc)
	}()
	return h
}

// Partition cuts this node's edge to peer b (either argument may be
// the local node; a remote-remote pair is not this transport's edge).
func (t *TCP) Partition(a, b ids.NodeID) { t.setPartitioned(a, b, true) }

// Heal restores this node's edge to peer b.
func (t *TCP) Heal(a, b ids.NodeID) { t.setPartitioned(a, b, false) }

func (t *TCP) setPartitioned(a, b ids.NodeID, cut bool) {
	other := ids.NodeID(0)
	switch {
	case a == t.node:
		other = b
	case b == t.node:
		other = a
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cut {
		t.partitioned[other] = true
	} else {
		delete(t.partitioned, other)
	}
}

// Isolate cuts every edge of this node (when a is this node) — it can
// neither send nor receive.
func (t *TCP) Isolate(a ids.NodeID) {
	if a != t.node {
		t.Partition(t.node, a)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.peers {
		t.partitioned[id] = true
	}
}

// SetDropRate makes each inter-node message (sent or received by this
// node) independently lost with probability r.
func (t *TCP) SetDropRate(r float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropRate = r
}

// Endpoints returns this process's only endpoint: itself.
func (t *TCP) Endpoints() []Endpoint { return []Endpoint{t} }

// Endpoint returns self when asked for this node.
func (t *TCP) Endpoint(id ids.NodeID) (Endpoint, bool) {
	if id == t.node {
		return t, true
	}
	return nil, false
}

// Close stops the listener, connections, writers, spawned procs, and
// closes every mailbox so blocked receivers return !ok.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	ports := make([]*tcpMailbox, 0, len(t.ports))
	for _, mb := range t.ports {
		ports = append(ports, mb)
	}
	procs := make([]*tcpHandle, 0, len(t.procs))
	for h := range t.procs {
		procs = append(procs, h)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	close(t.done)
	_ = t.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, h := range procs {
		h.Kill()
	}
	for _, mb := range ports {
		mb.close()
	}
	for _, p := range peers {
		p.stop()
	}
	t.wg.Wait()
}

// deliver routes an envelope to its port's mailbox.
func (t *TCP) deliver(env Envelope) {
	t.mu.Lock()
	mb := t.ports[env.To.Port]
	t.mu.Unlock()
	if mb == nil {
		t.nc.Dropped.Add(1)
		return
	}
	t.nc.MsgsRecv.Add(1)
	mb.put(env)
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readConn(conn)
			conn.Close()
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
		}()
	}
}

// readConn decodes frames off one inbound connection until error/EOF.
func (t *TCP) readConn(conn net.Conn) {
	for {
		env, n, err := readFrame(conn)
		if err != nil {
			return
		}
		t.nc.BytesRecv.Add(int64(n))
		if env.To.Node != t.node {
			t.nc.Dropped.Add(1)
			continue
		}
		t.mu.Lock()
		cut := t.partitioned[env.From]
		lose := t.dropRate > 0 && t.rng.Float64() < t.dropRate
		t.mu.Unlock()
		if cut || lose {
			t.nc.Dropped.Add(1)
			continue
		}
		t.deliver(env)
	}
}

// encodeFrame renders env as a 4-byte big-endian length + versioned
// binary body into a pooled buffer. The caller owns the returned buffer and must hand it
// to putFrame exactly once, after the frame's final disposition (the
// writer retries frames across reconnects, so "written once" is not
// "done with"). nc counts the frame; nil skips it.
func encodeFrame(env Envelope, nc *trace.NetCounters) (*[]byte, error) {
	bp := getFrame()
	out, _, err := AppendEnvelope(*bp, env)
	if err != nil {
		putFrame(bp)
		return nil, err
	}
	*bp = out
	body := len(out) - 4
	if body > maxFrame {
		putFrame(bp)
		return nil, fmt.Errorf("transport: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(out[:4], uint32(body))
	if nc != nil {
		nc.CodecFrames.Add(1)
	}
	return bp, nil
}

// readFrame reads one length-prefixed frame. n is the total bytes
// consumed. The body buffer is freshly allocated and never reused:
// decoded payloads ([]byte) alias it, which is what makes the receive
// path zero-copy.
func readFrame(r io.Reader) (Envelope, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, 0, err
	}
	body := binary.BigEndian.Uint32(hdr[:])
	if body > maxFrame {
		return Envelope{}, 0, fmt.Errorf("transport: oversized frame (%d bytes)", body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, 0, err
	}
	env, err := DecodeEnvelope(buf)
	if err != nil {
		return Envelope{}, 0, err
	}
	return env, int(body) + 4, nil
}

// tcpMailbox is a mutex-guarded FIFO with a wake channel, so receives
// can select against timeouts and proc kills.
type tcpMailbox struct {
	mu     sync.Mutex
	queue  []Envelope
	closed bool
	wake   chan struct{} // capacity 1; coalesced wakeups
}

func newTCPMailbox() *tcpMailbox {
	return &tcpMailbox{wake: make(chan struct{}, 1)}
}

func (m *tcpMailbox) put(env Envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.queue = append(m.queue, env)
	m.mu.Unlock()
	m.signal()
}

func (m *tcpMailbox) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *tcpMailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.signal()
}

// Recv blocks until a message arrives, the mailbox closes, or the proc
// is killed.
func (m *tcpMailbox) Recv(p Proc) (Envelope, bool) {
	return m.RecvTimeout(p, -1)
}

// RecvTimeout is Recv bounded by wall-clock d; d < 0 waits forever.
func (m *tcpMailbox) RecvTimeout(p Proc, d time.Duration) (Envelope, bool) {
	var timeout <-chan time.Time
	if d >= 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	killed := done(p)
	for {
		m.mu.Lock()
		if len(m.queue) > 0 {
			env := m.queue[0]
			m.queue = m.queue[1:]
			if len(m.queue) > 0 {
				// More waiting: re-signal so a second receiver (or the
				// next Recv) doesn't miss a coalesced wakeup.
				m.signal()
			}
			m.mu.Unlock()
			return env, true
		}
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return Envelope{}, false
		}
		select {
		case <-m.wake:
		case <-timeout:
			return Envelope{}, false
		case <-killed:
			return Envelope{}, false
		}
	}
}

// tcpProc is the Proc handed to Spawned services: Sleep is wall clock
// and returns early on kill.
type tcpProc struct {
	done chan struct{}
}

func (p *tcpProc) Sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-p.done:
	}
}

// Done implements Waiter.
func (p *tcpProc) Done() <-chan struct{} { return p.done }

type tcpHandle struct {
	proc *tcpProc
	once sync.Once
}

// Kill unblocks the proc's sleeps and receives; the service loop exits
// at its next !ok.
func (h *tcpHandle) Kill() { h.once.Do(func() { close(h.proc.done) }) }

// tcpPeer owns the outbound connection to one peer: a bounded frame
// queue drained by a writer goroutine that redials with backoff.
type tcpPeer struct {
	t  *TCP
	id ids.NodeID

	mu   sync.Mutex
	addr string

	out     chan *[]byte
	stopped chan struct{}
	once    sync.Once
}

func newTCPPeer(t *TCP, id ids.NodeID, addr string) *tcpPeer {
	p := &tcpPeer{
		t:       t,
		id:      id,
		addr:    addr,
		out:     make(chan *[]byte, t.opts.QueueDepth),
		stopped: make(chan struct{}),
	}
	t.wg.Add(1)
	go p.writeLoop()
	return p
}

func (p *tcpPeer) setAddr(addr string) {
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
}

func (p *tcpPeer) dialAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// enqueue submits a frame; false means the queue is full (backpressure
// drop, like a saturated link). Ownership of the pooled frame transfers
// to the writer only on true.
func (p *tcpPeer) enqueue(frame *[]byte) bool {
	select {
	case p.out <- frame:
		return true
	default:
		return false
	}
}

func (p *tcpPeer) stop() { p.once.Do(func() { close(p.stopped) }) }

// maxWriteBatch bounds the bytes one vectored write gathers, so that the
// one SendTimeout a batch gets still bounds small frames only; a frame
// larger than this goes out alone, as it always did.
const maxWriteBatch = 64 << 10

// writeLoop drains the queue, (re)connecting as needed. Whatever is
// already queued goes out in one vectored write under one deadline.
// Frames the connection took whole are done; on a failed write the frame
// it was cut in and every frame behind it are retried on the next
// connection, preserving FIFO.
func (p *tcpPeer) writeLoop() {
	defer p.t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := p.t.opts.ReconnectMin
	// retry sleeps out the current backoff and doubles it; false means
	// the peer was stopped meanwhile.
	retry := func() bool {
		p.t.nc.Retries.Add(1)
		select {
		case <-p.stopped:
			return false
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, p.t.opts.ReconnectMax)
		return true
	}
	var batch []*[]byte // taken off the queue and not yet written whole, oldest first
	var bufs net.Buffers
	for {
		select {
		case <-p.stopped:
			return
		case frame := <-p.out:
			batch = append(batch, frame)
		}
		for len(batch) > 0 {
			if conn == nil {
				c, err := p.t.dial(p.dialAddr(), p.t.opts.DialTimeout)
				if err != nil {
					if !retry() {
						return
					}
					continue
				}
				conn = c
				backoff = p.t.opts.ReconnectMin
			}
			size := 0
			for _, frame := range batch {
				size += len(*frame)
			}
		fill:
			for size < maxWriteBatch {
				select {
				case frame := <-p.out:
					batch = append(batch, frame)
					size += len(*frame)
				default:
					break fill
				}
			}
			bufs = bufs[:0]
			for _, frame := range batch {
				bufs = append(bufs, *frame)
			}
			// WriteTo consumes the slice it is called on; keep bufs itself
			// for its capacity.
			rest := bufs
			_ = conn.SetWriteDeadline(time.Now().Add(p.t.opts.SendTimeout))
			_, err := rest.WriteTo(conn)
			// Final disposition: written whole on a live connection.
			written := len(batch) - len(rest)
			for _, frame := range batch[:written] {
				putFrame(frame)
			}
			batch = append(batch[:0], batch[written:]...)
			if err != nil {
				conn.Close()
				conn = nil
				if !retry() {
					return
				}
			}
		}
	}
}
