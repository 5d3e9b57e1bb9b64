// Package codec is the single wire-registration point for every
// protocol message that crosses the transport fabric: consensus ballot
// rounds and membership gossip. Each type registers its hand-rolled
// binary codec with transport.RegisterWire; a type with no codec cannot
// cross the TCP wire at all.
//
// Centralizing the registrations here (instead of init functions
// scattered across consensus and membership) means the sim and TCP
// fabrics cannot drift: any binary importing this package —
// and every daemon, bench, and fabric test does, usually as
//
//	import _ "altrun/internal/transport/codec"
//
// — speaks the complete protocol vocabulary on both fabrics. Protocol
// packages themselves stay registration-free and depend only on
// transport; this package closes the loop by depending on all of them,
// which is also why transport itself must never import it.
//
// Tag space: 1 is claimed by transport for []byte; 2..99 are protocol
// messages assigned here (2..5, 12..15 and 16..17 stay reserved: see
// the tag list); 200..255 are reserved for applications. 200/201 were
// altserved's polled load-query protocol and 202/203 its typed stm and
// choo rfork specs; all four stay reserved. altserved now forwards a
// job as its raw JSON request, a []byte on tag 1.
package codec

import (
	"reflect"

	"altrun/internal/consensus"
	"altrun/internal/ids"
	"altrun/internal/membership"
	"altrun/internal/transport"
)

// Wire tags for protocol messages (transport.TagBytes = 1). Tags 2..5
// were the retired per-claim consensus messages (VoteReq, VoteReply,
// Release, CommitAnnounce), 12..15 the retired delta checkpoint
// shipping for rfork (ShipFull, ShipDelta, ShipNak, BaseInvalidate) and
// 16..17 the retired network paged-file device (PageRequest,
// PageReply); they stay reserved so a new message type can't collide
// with old peers on the wire.
const (
	TagBallotReq     byte = 6
	TagBallotReply   byte = 7
	TagBallotRelease byte = 8
	TagBallotCommit  byte = 9
	TagClaimSubmit   byte = 10
	TagClaimDecision byte = 11
	TagMemberPing    byte = 18
	TagMemberPingReq byte = 19
	TagMemberAck     byte = 20
	TagMemberGossip  byte = 21
	TagMemberEpoch   byte = 22
)

func init() {
	registerConsensus()
	registerMembership()
}

// reg is a small helper wrapping transport.RegisterWire.
func reg(tag byte, prototype any, enc func(any, []byte) []byte, dec func([]byte) (any, error)) {
	transport.RegisterWire(transport.WireCodec{
		Tag:    tag,
		Type:   reflect.TypeOf(prototype),
		Append: enc,
		Decode: dec,
	})
}

// Shared field helpers.

func appendAddr(dst []byte, a transport.Addr) []byte {
	dst = transport.AppendUvarint(dst, uint64(a.Node))
	return transport.AppendString(dst, a.Port)
}

func readAddr(r *transport.WireReader) transport.Addr {
	return transport.Addr{Node: ids.NodeID(r.Uvarint()), Port: r.String()}
}

func registerConsensus() {
	reg(TagBallotReq, consensus.BallotReq{},
		func(p any, dst []byte) []byte {
			m := p.(consensus.BallotReq)
			dst = transport.AppendVarint(dst, m.Round)
			dst = transport.AppendVarint(dst, m.Epoch)
			dst = appendAddr(dst, m.Reply)
			return appendBallotClaims(dst, m.Claims)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.BallotReq{
				Round: r.Varint(),
				Epoch: r.Varint(),
				Reply: readAddr(r),
			}
			m.Claims = readBallotClaims(r)
			return m, r.Err()
		})
	reg(TagBallotReply, consensus.BallotReply{},
		func(p any, dst []byte) []byte {
			m := p.(consensus.BallotReply)
			dst = transport.AppendVarint(dst, m.Round)
			dst = transport.AppendUvarint(dst, uint64(m.Voter))
			dst = transport.AppendVarint(dst, m.Epoch)
			stale := byte(0)
			if m.Stale {
				stale = 1
			}
			dst = append(dst, stale)
			dst = transport.AppendUvarint(dst, uint64(len(m.Votes)))
			for _, v := range m.Votes {
				dst = transport.AppendString(dst, v.Key)
				granted := byte(0)
				if v.Granted {
					granted = 1
				}
				dst = append(dst, granted)
				dst = transport.AppendVarint(dst, int64(v.Winner))
			}
			return dst
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.BallotReply{
				Round: r.Varint(),
				Voter: ids.NodeID(r.Uvarint()),
				Epoch: r.Varint(),
			}
			m.Stale = r.Uvarint() != 0
			n := r.Uvarint()
			if r.Err() == nil && n > 0 && n <= uint64(r.Remaining()) {
				m.Votes = make([]consensus.BallotVote, 0, n)
				for i := uint64(0); i < n && r.Err() == nil; i++ {
					v := consensus.BallotVote{Key: r.String()}
					v.Granted = r.Uvarint() != 0
					v.Winner = ids.PID(r.Varint())
					m.Votes = append(m.Votes, v)
				}
			}
			return m, r.Err()
		})
	reg(TagBallotRelease, consensus.BallotRelease{},
		func(p any, dst []byte) []byte {
			return appendBallotClaims(dst, p.(consensus.BallotRelease).Claims)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.BallotRelease{Claims: readBallotClaims(r)}
			return m, r.Err()
		})
	reg(TagBallotCommit, consensus.BallotCommit{},
		func(p any, dst []byte) []byte {
			return appendBallotClaims(dst, p.(consensus.BallotCommit).Commits)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.BallotCommit{Commits: readBallotClaims(r)}
			return m, r.Err()
		})
	reg(TagClaimSubmit, consensus.ClaimSubmit{},
		func(p any, dst []byte) []byte {
			m := p.(consensus.ClaimSubmit)
			dst = transport.AppendString(dst, m.Key)
			dst = transport.AppendVarint(dst, int64(m.Claimant))
			return appendAddr(dst, m.Reply)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.ClaimSubmit{
				Key:      r.String(),
				Claimant: ids.PID(r.Varint()),
				Reply:    readAddr(r),
			}
			return m, r.Err()
		})
	reg(TagClaimDecision, consensus.ClaimDecision{},
		func(p any, dst []byte) []byte {
			m := p.(consensus.ClaimDecision)
			dst = transport.AppendString(dst, m.Key)
			flags := byte(0)
			if m.Won {
				flags |= 1
			}
			if m.TooLate {
				flags |= 2
			}
			dst = append(dst, flags)
			dst = transport.AppendVarint(dst, int64(m.Winner))
			return transport.AppendVarint(dst, int64(m.Ballots))
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := consensus.ClaimDecision{Key: r.String()}
			flags := r.Uvarint()
			m.Won = flags&1 != 0
			m.TooLate = flags&2 != 0
			m.Winner = ids.PID(r.Varint())
			m.Ballots = int(r.Varint())
			return m, r.Err()
		})
}

func appendBallotClaims(dst []byte, claims []consensus.BallotClaim) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(claims)))
	for _, c := range claims {
		dst = transport.AppendString(dst, c.Key)
		dst = transport.AppendVarint(dst, int64(c.Claimant))
	}
	return dst
}

func readBallotClaims(r *transport.WireReader) []consensus.BallotClaim {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 || n > uint64(r.Remaining()) {
		return nil
	}
	claims := make([]consensus.BallotClaim, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		claims = append(claims, consensus.BallotClaim{
			Key:      r.String(),
			Claimant: ids.PID(r.Varint()),
		})
	}
	return claims
}

// Membership update lists: the shared field group of every gossip
// message.
func appendUpdates(dst []byte, us []membership.Update) []byte {
	dst = transport.AppendUvarint(dst, uint64(len(us)))
	for _, u := range us {
		dst = transport.AppendUvarint(dst, uint64(u.Node))
		dst = transport.AppendString(dst, u.Addr)
		dst = transport.AppendVarint(dst, u.Incarnation)
		dst = transport.AppendUvarint(dst, uint64(u.Status))
		dst = transport.AppendVarint(dst, u.Seq)
		dst = transport.AppendVarint(dst, int64(u.Load))
	}
	return dst
}

func readUpdates(r *transport.WireReader) []membership.Update {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Remaining()) {
		// Each update takes several bytes; an absurd count is a
		// malformed frame, not an allocation request.
		return nil
	}
	us := make([]membership.Update, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		u := membership.Update{
			Node:        ids.NodeID(r.Uvarint()),
			Addr:        r.String(),
			Incarnation: r.Varint(),
		}
		u.Status = membership.Status(r.Uvarint())
		u.Seq = r.Varint()
		u.Load = int32(r.Varint())
		us = append(us, u)
	}
	return us
}

func registerMembership() {
	reg(TagMemberPing, membership.Ping{},
		func(p any, dst []byte) []byte {
			m := p.(membership.Ping)
			dst = transport.AppendVarint(dst, m.Seq)
			dst = appendAddr(dst, m.Reply)
			return appendUpdates(dst, m.Updates)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := membership.Ping{
				Seq:   r.Varint(),
				Reply: readAddr(r),
			}
			m.Updates = readUpdates(r)
			return m, r.Err()
		})
	reg(TagMemberPingReq, membership.PingReq{},
		func(p any, dst []byte) []byte {
			m := p.(membership.PingReq)
			dst = transport.AppendVarint(dst, m.Seq)
			dst = transport.AppendUvarint(dst, uint64(m.Target))
			dst = appendAddr(dst, m.Reply)
			return appendUpdates(dst, m.Updates)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := membership.PingReq{
				Seq:    r.Varint(),
				Target: ids.NodeID(r.Uvarint()),
				Reply:  readAddr(r),
			}
			m.Updates = readUpdates(r)
			return m, r.Err()
		})
	reg(TagMemberAck, membership.Ack{},
		func(p any, dst []byte) []byte {
			m := p.(membership.Ack)
			dst = transport.AppendVarint(dst, m.Seq)
			dst = transport.AppendUvarint(dst, uint64(m.Node))
			return appendUpdates(dst, m.Updates)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := membership.Ack{
				Seq:  r.Varint(),
				Node: ids.NodeID(r.Uvarint()),
			}
			m.Updates = readUpdates(r)
			return m, r.Err()
		})
	reg(TagMemberGossip, membership.Gossip{},
		func(p any, dst []byte) []byte {
			m := p.(membership.Gossip)
			join := byte(0)
			if m.Join {
				join = 1
			}
			dst = append(dst, join)
			return appendUpdates(dst, m.Updates)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := membership.Gossip{}
			m.Join = r.Uvarint() != 0
			m.Updates = readUpdates(r)
			return m, r.Err()
		})
	reg(TagMemberEpoch, membership.EpochChange{},
		func(p any, dst []byte) []byte {
			m := p.(membership.EpochChange)
			dst = transport.AppendVarint(dst, m.Epoch)
			return appendUpdates(dst, m.Updates)
		},
		func(data []byte) (any, error) {
			r := transport.NewWireReader(data)
			m := membership.EpochChange{Epoch: r.Varint()}
			m.Updates = readUpdates(r)
			return m, r.Err()
		})
}
