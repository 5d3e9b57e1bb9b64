package consensus_test

import (
	"net"
	"testing"
	"time"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"

	_ "altrun/internal/transport/codec"
)

// newTCPNode opens a loopback TCP endpoint for node id with its own
// counters, closed at test end.
func newTCPNode(t *testing.T, id ids.NodeID) (*transport.TCP, *trace.NetCounters) {
	t.Helper()
	nc := &trace.NetCounters{}
	ep, err := transport.NewTCP(transport.TCPOptions{Node: id, Counters: nc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep, nc
}

// deadAddr returns a loopback address that refuses connections: bind a
// port, read the address, close the listener.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClaimRTTDroppedAcrossReconnect is the regression test for RTT
// accounting over the real transport: a claim whose ballot round
// overlaps a reconnect (one dead peer forces dial retries) must not
// record the inflated round trip. The fake voter delays its grant until
// the coalescer's transport has registered a retry, guaranteeing the
// reply RTT straddles the reconnect; the sample must land in
// rtt_dropped, leaving the EWMA and quantiles untouched.
func TestClaimRTTDroppedAcrossReconnect(t *testing.T) {
	claimEP, claimNC := newTCPNode(t, 1)
	voterEP, _ := newTCPNode(t, 2)
	claimEP.AddPeer(2, voterEP.Addr())
	claimEP.AddPeer(3, deadAddr(t)) // dead peer: dials fail, Retries climbs
	voterEP.AddPeer(1, claimEP.Addr())

	// Fake voter: grant every claim in the round, but only after the
	// coalescer's transport has recorded at least one reconnect attempt.
	inbox := voterEP.Bind(consensus.DefaultVotePort)
	h := voterEP.Spawn("fake-voter", func(p transport.Proc) {
		for {
			env, ok := inbox.Recv(p)
			if !ok {
				return
			}
			req, isReq := env.Payload.(consensus.BallotReq)
			if !isReq {
				continue
			}
			deadline := time.Now().Add(10 * time.Second)
			for claimNC.RetryCount() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			reply := consensus.BallotReply{Round: req.Round, Voter: voterEP.ID(), Epoch: req.Epoch}
			for _, c := range req.Claims {
				reply.Votes = append(reply.Votes, consensus.BallotVote{Key: c.Key, Granted: true})
			}
			voterEP.Send(req.Reply, reply)
		}
	})
	defer h.Kill()

	co := consensus.StartCoalescer(claimEP, []ids.NodeID{2, 3}, "", consensus.Config{
		ReplyTimeout: 2 * time.Second,
		MaxAttempts:  1,
		Net:          claimNC,
	})
	defer co.Stop()
	res := co.Claim(transport.Background(), "rtt-test", ids.PID(100))
	if res.Won {
		t.Fatalf("claim won without a quorum: %+v", res)
	}
	s := claimNC.Snapshot()
	if s.Retries == 0 {
		t.Fatalf("dead peer produced no reconnect attempts: %+v", s)
	}
	if s.RTTSamples != 0 || s.RTTEWMAMS != 0 {
		t.Fatalf("reconnect-straddling RTT leaked into the estimate: %+v", s)
	}
	if s.RTTDropped == 0 {
		t.Fatalf("straddling sample was not counted as dropped: %+v", s)
	}
}

// TestClaimRTTRecordedWhenStable is the positive companion: with every
// peer reachable, ballot round trips feed the estimate normally.
func TestClaimRTTRecordedWhenStable(t *testing.T) {
	claimEP, claimNC := newTCPNode(t, 1)
	voterEP, _ := newTCPNode(t, 2)
	claimEP.AddPeer(2, voterEP.Addr())
	voterEP.AddPeer(1, claimEP.Addr())
	v := consensus.StartVoter(voterEP, "")
	defer v.Stop()

	co := consensus.StartCoalescer(claimEP, []ids.NodeID{2}, "", consensus.Config{
		ReplyTimeout: 10 * time.Second,
		Net:          claimNC,
	})
	defer co.Stop()
	res := co.Claim(transport.Background(), "rtt-ok", ids.PID(100))
	if !res.Won {
		t.Fatalf("single-voter claim must win: %+v", res)
	}
	s := claimNC.Snapshot()
	if s.RTTSamples == 0 {
		t.Fatalf("no RTT recorded on the stable path: %+v", s)
	}
	if s.RTTDropped != 0 {
		t.Fatalf("stable samples dropped: %+v", s)
	}
}
