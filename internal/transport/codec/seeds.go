package codec

import (
	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/membership"
	"altrun/internal/transport"
)

// SeedEnvelopes returns one exemplar envelope per registered frame
// shape, with strings and byte payloads exercising every
// length-prefixed field. The fuzz harness seeds from it in every
// encoding; add an entry here when registering a new message type.
func SeedEnvelopes() []transport.Envelope {
	addr := func(n ids.NodeID, port string) transport.Addr {
		return transport.Addr{Node: n, Port: port}
	}
	return []transport.Envelope{
		{From: 1, To: addr(2, "inbox"), Payload: []byte("raw bytes payload")},
		{From: 3, To: addr(1, "consensus/vote"), Payload: consensus.BallotReq{
			Round: 9, Epoch: 4, Reply: addr(3, "consensus/vote/batch"),
			Claims: []consensus.BallotClaim{
				{Key: "job/3/1", Claimant: ids.PID(11)},
				{Key: "job/3/2", Claimant: ids.PID(12)},
			},
		}},
		{From: 1, To: addr(3, "consensus/vote/batch"), Payload: consensus.BallotReply{
			Round: 9, Voter: 1, Epoch: 4,
			Votes: []consensus.BallotVote{
				{Key: "job/3/1", Granted: true},
				{Key: "job/3/2", Winner: ids.PID(99)},
			},
		}},
		{From: 2, To: addr(3, "consensus/vote/batch"), Payload: consensus.BallotReply{
			Round: 9, Voter: 2, Epoch: 5, Stale: true,
		}},
		{From: 3, To: addr(1, "consensus/vote"), Payload: consensus.BallotRelease{
			Claims: []consensus.BallotClaim{{Key: "job/3/2", Claimant: ids.PID(12)}},
		}},
		{From: 3, To: addr(1, "consensus/vote"), Payload: consensus.BallotCommit{
			Commits: []consensus.BallotClaim{{Key: "job/3/1", Claimant: ids.PID(11)}},
		}},
		{From: 3, To: addr(3, "consensus/vote/batch"), Payload: consensus.ClaimSubmit{
			Key: "job/3/1", Claimant: ids.PID(11), Reply: addr(3, "claim/reply"),
		}},
		{From: 3, To: addr(3, "claim/reply"), Payload: consensus.ClaimDecision{
			Key: "job/3/1", Won: true, Winner: ids.PID(11), Ballots: 1,
		}},
		{From: 1, To: addr(2, membership.Port), Payload: membership.Ping{
			Seq: 17, Reply: addr(1, membership.Port),
			Updates: []membership.Update{
				{Node: 1, Addr: "127.0.0.1:7101", Incarnation: 2, Status: membership.StatusAlive, Seq: 40, Load: 3},
				{Node: 4, Incarnation: 1, Status: membership.StatusSuspect, Seq: 9},
			},
		}},
		{From: 1, To: addr(3, membership.Port), Payload: membership.PingReq{
			Seq: 18, Target: 4, Reply: addr(1, membership.Port),
			Updates: []membership.Update{
				{Node: 1, Addr: "127.0.0.1:7101", Incarnation: 2, Status: membership.StatusAlive, Seq: 41, Load: 2},
			},
		}},
		{From: 4, To: addr(1, membership.Port), Payload: membership.Ack{
			Seq: 18, Node: 4,
			Updates: []membership.Update{
				{Node: 4, Addr: "127.0.0.1:7104", Incarnation: 3, Status: membership.StatusAlive, Seq: 12, Load: 0},
			},
		}},
		{From: 5, To: addr(1, membership.Port), Payload: membership.Gossip{
			Join: true,
			Updates: []membership.Update{
				{Node: 5, Addr: "127.0.0.1:7105", Incarnation: 0, Status: membership.StatusAlive, Seq: 1},
			},
		}},
		{From: 1, To: addr(2, membership.Port), Payload: membership.EpochChange{
			Epoch: 6,
			Updates: []membership.Update{
				{Node: 4, Incarnation: 3, Status: membership.StatusDead, Seq: 12},
				{Node: 6, Incarnation: 0, Status: membership.StatusLeft},
			},
		}},
	}
}
