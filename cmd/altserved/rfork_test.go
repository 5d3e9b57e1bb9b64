package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// rforkFrameHeader bounds what one forwarded request adds to its JSON
// on the wire: the 4-byte length prefix, version and tag bytes, the
// sender and destination node uvarints, the length-prefixed "rfork"
// port and the body's length uvarint. Measured: 15 bytes for a body
// under 128 bytes, 17 for one over 16 KiB.
const rforkFrameHeader = 17

// rforkPair returns a sender with nothing but its transport, meshed
// toward a second node's transport.
func rforkPair(t *testing.T) (*clusterState, *transport.TCP) {
	t.Helper()
	var tcps [2]*transport.TCP
	for i := range tcps {
		tcp, err := transport.NewTCP(transport.TCPOptions{Node: ids.NodeID(i + 1), Counters: &trace.NetCounters{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		tcps[i] = tcp
	}
	tcps[0].AddPeer(tcps[1].ID(), tcps[1].Addr())
	return &clusterState{node: tcps[0].ID(), tcp: tcps[0]}, tcps[1]
}

// TestRForkSendsTheRequestAsOneFrame: forwarding a short and a more
// than 16 KiB request each sends one message that raises the sender's
// BytesSent by the JSON body plus at most rforkFrameHeader, and the
// peer's rfork port receives that body as a []byte holding the request
// with the origin's TraceID stamped in.
func TestRForkSendsTheRequestAsOneFrame(t *testing.T) {
	sender, peer := rforkPair(t)
	inbox := peer.Bind(checkpoint.RForkPort)
	nc := sender.tcp.Counters()

	sortOf := func(n int) submitRequest {
		req := submitRequest{Kind: "sort", Input: make([]int, n)}
		for i := range req.Input {
			req.Input[i] = n - i
		}
		return req
	}
	for i, req := range []submitRequest{sortOf(3), sortOf(5000)} {
		before := nc.Snapshot()
		if err := sender.rfork(peer.ID(), req); err != nil {
			t.Fatalf("rfork %d: %v", i, err)
		}
		after := nc.Snapshot()
		env, ok := inbox.RecvTimeout(transport.Background(), 10*time.Second)
		if !ok {
			t.Fatalf("rfork %d never arrived", i)
		}
		body, ok := env.Payload.([]byte)
		if !ok {
			t.Fatalf("rfork %d: payload %T, want []byte", i, env.Payload)
		}
		req.TraceID = fmt.Sprintf("n1-r%d", i+1)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("rfork %d: received %.80q, want %.80q", i, body, want)
		}
		if i == 1 && len(body) <= 16<<10 {
			t.Fatalf("rfork %d: %d-byte body, want one over 16 KiB", i, len(body))
		}
		msgs, sent := after.MsgsSent-before.MsgsSent, after.BytesSent-before.BytesSent
		if msgs != 1 || sent < int64(len(body)) || sent > int64(len(body))+rforkFrameHeader {
			t.Fatalf("rfork %d: %d message(s), %d bytes sent for a %d-byte body; want 1 message of at most %d header bytes",
				i, msgs, sent, len(body), rforkFrameHeader)
		}
		t.Logf("rfork %d: %d-byte body, %d-byte frame header", i, len(body), sent-int64(len(body)))
	}
}

// TestRForkKeepsOversizeRequestLocal: re-marshalling can grow a request
// (json.Marshal writes '<' as six bytes, \u003c), so a body that passed
// the HTTP cap may exceed it when forwarded. rfork refuses to send one
// the peer would drop and returns an error, so the caller runs the job
// locally.
func TestRForkKeepsOversizeRequestLocal(t *testing.T) {
	sender, peer := rforkPair(t)
	peer.Bind(checkpoint.RForkPort)
	req := submitRequest{Kind: "prolog", Query: "a(X)", Program: strings.Repeat("a(X) :- X < 1. ", maxSubmitBytes/16)}
	if raw := len(req.Program); raw > maxSubmitBytes {
		t.Fatalf("program of %d bytes is over the cap before escaping", raw)
	}
	if err := sender.rfork(peer.ID(), req); err == nil {
		t.Fatal("rfork sent a request over maxSubmitBytes")
	}
	if sent := sender.tcp.Counters().Snapshot().MsgsSent; sent != 0 || sender.rforksOut.Load() != 0 {
		t.Fatalf("%d message(s) sent, rforksOut %d; want none", sent, sender.rforksOut.Load())
	}
}
