package transport

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"altrun/internal/ids"
)

// recvOne waits for a single envelope with a test-friendly timeout.
func recvOne(t *testing.T, mb Mailbox, d time.Duration) Envelope {
	t.Helper()
	env, ok := mb.RecvTimeout(Background(), d)
	if !ok {
		t.Fatal("expected a message")
	}
	return env
}

func newPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(TCPOptions{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(TCPOptions{Node: 2})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	return a, b
}

func TestTCPSendReceive(t *testing.T) {
	a, b := newPair(t)
	mb := b.Bind("inbox")
	if !a.Send(Addr{Node: 2, Port: "inbox"}, "hello") {
		t.Fatal("send failed")
	}
	env := recvOne(t, mb, 5*time.Second)
	if env.From != ids.NodeID(1) || env.Payload != "hello" {
		t.Fatalf("env = %+v", env)
	}
	if a.Counters().Snapshot().BytesSent == 0 {
		t.Error("byte accounting missing")
	}
}

func TestTCPFIFOPerPeer(t *testing.T) {
	a, b := newPair(t)
	mb := b.Bind("inbox")
	const n = 200
	for i := 0; i < n; i++ {
		if !a.Send(Addr{Node: 2, Port: "inbox"}, i) {
			t.Fatalf("send %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		env := recvOne(t, mb, 5*time.Second)
		if env.Payload != i {
			t.Fatalf("message %d arrived as %v (order broken)", i, env.Payload)
		}
	}
}

func TestTCPSameNodeDelivery(t *testing.T) {
	a, _ := newPair(t)
	mb := a.Bind("self")
	if !a.Send(Addr{Node: 1, Port: "self"}, []byte("loop")) {
		t.Fatal("same-node send failed")
	}
	env := recvOne(t, mb, time.Second)
	if string(env.Payload.([]byte)) != "loop" {
		t.Fatalf("env = %+v", env)
	}
}

func TestTCPUnboundPortDrops(t *testing.T) {
	a, b := newPair(t)
	before := a.Counters().Snapshot().Dropped
	a.Send(Addr{Node: 2, Port: "nobody-home"}, "lost")
	deadline := time.Now().Add(5 * time.Second)
	for b.Counters().Snapshot().Dropped == before {
		if time.Now().After(deadline) {
			t.Fatal("drop never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPPartitionCutsBothDirections(t *testing.T) {
	fleet, err := NewTCPFleet(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	a, b := fleet.Members()[0], fleet.Members()[1]
	amb, bmb := a.Bind("in"), b.Bind("in")
	fleet.Partition(1, 2)
	a.Send(Addr{Node: 2, Port: "in"}, "x")
	b.Send(Addr{Node: 1, Port: "in"}, "y")
	if _, ok := bmb.RecvTimeout(Background(), 200*time.Millisecond); ok {
		t.Error("partitioned a->b delivered")
	}
	if _, ok := amb.RecvTimeout(Background(), 200*time.Millisecond); ok {
		t.Error("partitioned b->a delivered")
	}
	fleet.Heal(1, 2)
	if !a.Send(Addr{Node: 2, Port: "in"}, "again") {
		t.Fatal("post-heal send failed")
	}
	if env := recvOne(t, bmb, 5*time.Second); env.Payload != "again" {
		t.Fatalf("env = %+v", env)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := NewTCP(TCPOptions{Node: 1, ReconnectMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(TCPOptions{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a.AddPeer(2, addr)
	mb := b.Bind("in")
	if !a.Send(Addr{Node: 2, Port: "in"}, "one") {
		t.Fatal("send failed")
	}
	recvOne(t, mb, 5*time.Second)

	// Kill the peer, then restart it on the same address. Frames
	// written into the dying socket may be lost (the transport promises
	// FIFO, not exactly-once), so stream messages until one lands: the
	// writer must have redialled for that to happen.
	b.Close()
	a.Send(Addr{Node: 2, Port: "in"}, "down") // likely lost; kicks the writer
	time.Sleep(50 * time.Millisecond)
	b2, err := NewTCP(TCPOptions{Node: 2, Listen: addr})
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer b2.Close()
	mb2 := b2.Bind("in")
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				a.Send(Addr{Node: 2, Port: "in"}, i)
			}
		}
	}()
	if _, ok := mb2.RecvTimeout(Background(), 10*time.Second); !ok {
		t.Fatal("no message delivered after peer restart")
	}
}

func TestTCPSpawnKillUnblocksRecv(t *testing.T) {
	a, _ := newPair(t)
	mb := a.Bind("svc")
	exited := make(chan struct{})
	h := a.Spawn("svc", func(p Proc) {
		defer close(exited)
		for {
			if _, ok := mb.Recv(p); !ok {
				return
			}
		}
	})
	h.Kill()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("killed service never exited")
	}
}

// cutConn passes writes through until budget bytes have gone out, then
// fails the write that crosses it part-way through and closes.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(b []byte) (int, error) {
	if len(b) <= c.budget {
		c.budget -= len(b)
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:c.budget])
	c.Conn.Close()
	return n, io.ErrClosedPipe
}

// TestTCPBatchCutByRedial: the writer gathers queued frames into one
// vectored write. When the connection dies inside such a write, frames
// it took whole must not be sent again, the frame it was cut in must be
// sent again from its start, and the rest must follow in order: the peer
// sees every frame once.
func TestTCPBatchCutByRedial(t *testing.T) {
	const frames = 40
	a, err := NewTCP(TCPOptions{Node: 1, ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(TCPOptions{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	mb := b.Bind("inbox")
	// The first connection waits until every frame is queued, so that
	// they go out as one batch, and dies 2.5 frames into it.
	queued := make(chan struct{})
	dial := a.dial
	var dials atomic.Int32
	a.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		<-queued
		conn, err := dial(addr, timeout)
		if dials.Add(1) == 1 && err == nil {
			probe, _ := encodeFrame(Envelope{From: 1, To: Addr{Node: 2, Port: "inbox"}, Payload: 0}, nil)
			conn = &cutConn{Conn: conn, budget: len(*probe) * 5 / 2}
		}
		return conn, err
	}
	a.AddPeer(2, b.Addr())
	for i := 0; i < frames; i++ {
		if !a.Send(Addr{Node: 2, Port: "inbox"}, i) {
			t.Fatalf("send %d failed", i)
		}
	}
	close(queued)
	for i := 0; i < frames; i++ {
		if env := recvOne(t, mb, 5*time.Second); env.Payload != i {
			t.Fatalf("message %d arrived as %v: a frame was lost, repeated or reordered", i, env.Payload)
		}
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("writer dialled %d times, want 2: the cut must have cost one redial", n)
	}
}
