package checkpoint

import (
	"bytes"
	"fmt"
	"sync"

	"altrun/internal/ids"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// Delta shipping. The seed rfork path re-ships a whole checkpoint image
// per forwarded job even though successive images in one stream — the
// same sender forwarding the same kind of work — share almost all their
// bytes. A Shipper names such a stream a *lineage* and transmits, after
// one full base image, only the pages that differ from it:
//
//	sender                          receiver
//	ShipFull{lineage, epoch, data}  → cache (from, lineage) = base@epoch
//	ShipDelta{lineage, epoch, pages}→ reconstruct base+pages → Image
//	ShipDelta{...}                  → ...
//
// Deltas do NOT chain: every delta is diffed against the FIXED base
// epoch, so each reconstruction needs only (base, this delta) and a
// lost or reordered message can never silently corrupt a later one —
// the worst case is a missing job, which the seed path (fire-and-forget
// Send) already admits. A delta naming an epoch the receiver doesn't
// hold (cache eviction, receiver restart) is dropped and NAKed; the
// sender answers by re-shipping its retained latest image as a new full
// base. When deltas grow to a large fraction of the space the sender
// re-bases: a fresh full ship under a bumped epoch, which also
// implicitly invalidates the receiver's older base. Explicit
// invalidation (Shipper.InvalidateLineage / BaseInvalidate) covers the
// remaining case: the sender learns the lineage's state is stale — e.g.
// a competing commit rewrote what the base was captured from — and
// tells receivers to drop the base rather than apply deltas to it.

// RForkCtlPort is the well-known port delta-shipping senders bind for
// control traffic (NAKs) coming back from receivers.
const RForkCtlPort = "rfork/ctl"

// Wire messages. Registered (gob + binary codec) in
// internal/transport/codec.
type (
	// ShipFull establishes (or replaces) a lineage's base image.
	ShipFull struct {
		Lineage   string
		Epoch     int64
		PID       ids.PID
		Name      string
		PageSize  int
		SpaceSize int64
		Data      []byte
		Control   map[string]int64
	}
	// DeltaPage is one changed page inside a ShipDelta.
	DeltaPage struct {
		Page int64
		Data []byte
	}
	// ShipDelta carries the pages of one image that differ from the
	// lineage's base at BaseEpoch.
	ShipDelta struct {
		Lineage   string
		BaseEpoch int64
		PID       ids.PID
		Name      string
		Control   map[string]int64
		Pages     []DeltaPage
	}
	// ShipNak tells a sender its delta referenced a base the receiver
	// does not hold; the sender re-ships a full image.
	ShipNak struct {
		Lineage string
		Epoch   int64
	}
	// BaseInvalidate tells receivers to forget a lineage's cached base
	// (the sender knows it is stale, e.g. after a competing commit).
	BaseInvalidate struct {
		Lineage string
	}
)

// WireSize implements transport.WireSizer.
func (m ShipFull) WireSize() int {
	return len(m.Lineage) + len(m.Name) + len(m.Data) + 16*len(m.Control) + 40
}

// WireSize implements transport.WireSizer.
func (m ShipDelta) WireSize() int {
	n := len(m.Lineage) + len(m.Name) + 16*len(m.Control) + 32
	for _, p := range m.Pages {
		n += len(p.Data) + 10
	}
	return n
}

// DefaultBaseCacheSize bounds a Receiver's cached bases (lineages are
// few: one per sender×stream, not per job).
const DefaultBaseCacheSize = 64

// shipKey identifies one sender-side session.
type shipKey struct {
	to      ids.NodeID
	lineage string
}

// shipSession is the sender's per-(peer, lineage) state.
type shipSession struct {
	epoch     int64
	base      []byte // snapshot the receiver holds under epoch
	pageSize  int
	spaceSize int64
	last      *Image // latest shipped image, retained for NAK recovery
}

// Shipper ships checkpoint images delta-compressed per lineage. Safe
// for concurrent use.
type Shipper struct {
	ep transport.Endpoint
	nc *trace.NetCounters

	mu       sync.Mutex
	sessions map[shipKey]*shipSession
}

// NewShipper returns a delta shipper sending from ep. nc (nil ok)
// receives full/delta ship accounting.
func NewShipper(ep transport.Endpoint, nc *trace.NetCounters) *Shipper {
	return &Shipper{ep: ep, nc: nc, sessions: make(map[shipKey]*shipSession)}
}

// Ship sends img to the rfork port on node `to` under the given
// lineage: a full base image the first time (or after re-base /
// invalidation), only the pages differing from the base afterwards.
// Every page of the image is compared with the base. Returns the
// estimated wire size and whether a delta was sent.
func (s *Shipper) Ship(p transport.Proc, to ids.NodeID, lineage string, img *Image) (int, bool, error) {
	key := shipKey{to: to, lineage: lineage}
	s.mu.Lock()
	sess := s.sessions[key]
	if sess == nil || sess.pageSize != img.PageSize || sess.spaceSize != img.SpaceSize {
		sess = &shipSession{pageSize: img.PageSize, spaceSize: img.SpaceSize}
		s.sessions[key] = sess
	}
	var pages []DeltaPage
	if sess.base != nil {
		pages = diffPages(sess.base, img.Data, img.PageSize)
		// Re-base when the delta stops being a win: more than half the
		// space changed means the base has drifted from the stream.
		if int64(len(pages)*img.PageSize)*2 > img.SpaceSize {
			pages = nil
			sess.base = nil
		}
	}
	if sess.base == nil {
		sess.epoch++
		sess.base = append([]byte(nil), img.Data...)
		sess.last = img
		msg := ShipFull{
			Lineage:   lineage,
			Epoch:     sess.epoch,
			PID:       img.PID,
			Name:      img.Name,
			PageSize:  img.PageSize,
			SpaceSize: img.SpaceSize,
			Data:      img.Data,
			Control:   img.Control,
		}
		s.mu.Unlock()
		wire := msg.WireSize()
		p.Sleep(s.ep.TransferCost(wire) - s.ep.TransferCost(0))
		s.ep.Send(transport.Addr{Node: to, Port: RForkPort}, msg)
		if s.nc != nil {
			s.nc.FullShips.Add(1)
			s.nc.FullShipBytes.Add(int64(wire))
		}
		return wire, false, nil
	}
	sess.last = img
	msg := ShipDelta{
		Lineage:   lineage,
		BaseEpoch: sess.epoch,
		PID:       img.PID,
		Name:      img.Name,
		Control:   img.Control,
		Pages:     pages,
	}
	s.mu.Unlock()
	wire := msg.WireSize()
	p.Sleep(s.ep.TransferCost(wire) - s.ep.TransferCost(0))
	s.ep.Send(transport.Addr{Node: to, Port: RForkPort}, msg)
	if s.nc != nil {
		s.nc.DeltaShips.Add(1)
		s.nc.DeltaShipBytes.Add(int64(wire))
	}
	return wire, true, nil
}

// HandleNak answers a receiver's ShipNak from node `from`: the session
// is re-based and the retained latest image re-shipped as a full base,
// so the stream recovers without sender-side history. Deltas that were
// in flight behind the NAK are superseded or lost — the same fate a
// fire-and-forget Send always risked.
func (s *Shipper) HandleNak(p transport.Proc, from ids.NodeID, nak ShipNak) {
	key := shipKey{to: from, lineage: nak.Lineage}
	s.mu.Lock()
	sess := s.sessions[key]
	if sess == nil || sess.last == nil || nak.Epoch != sess.epoch {
		// No session, nothing retained, or the NAK is about an epoch we
		// already moved past (a newer full ship is in flight).
		s.mu.Unlock()
		return
	}
	last := sess.last
	sess.base = nil
	s.mu.Unlock()
	_, _, _ = s.Ship(p, from, nak.Lineage, last)
}

// InvalidateLineage drops the sender-side session for lineage toward
// every peer and tells receivers to forget their cached base — the
// commit-side invalidation hook: call it when the state the lineage's
// base was captured from has been superseded (a competing commit). The
// next Ship re-establishes the stream with a full image.
func (s *Shipper) InvalidateLineage(lineage string) {
	s.mu.Lock()
	var peers []ids.NodeID
	for key := range s.sessions {
		if key.lineage == lineage {
			peers = append(peers, key.to)
			delete(s.sessions, key)
		}
	}
	s.mu.Unlock()
	for _, to := range peers {
		s.ep.Send(transport.Addr{Node: to, Port: RForkPort}, BaseInvalidate{Lineage: lineage})
	}
}

// DropPeer discards every sender-side session toward a departed peer
// and returns how many were dropped. Unlike InvalidateLineage it sends
// nothing — the peer is gone (the membership view declared it dead or
// left), so there is no receiver to tell. If the node later rejoins,
// the first Ship toward it starts a fresh stream with a full base.
func (s *Shipper) DropPeer(to ids.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key := range s.sessions {
		if key.to == to {
			delete(s.sessions, key)
			n++
		}
	}
	return n
}

// diffPages returns the pages of cur that differ from base (equal
// lengths assumed; the caller re-bases on size change).
func diffPages(base, cur []byte, pageSize int) []DeltaPage {
	var out []DeltaPage
	for off := 0; off < len(cur); off += pageSize {
		end := min(off+pageSize, len(cur))
		if !bytes.Equal(base[off:end], cur[off:end]) {
			out = append(out, DeltaPage{Page: int64(off / pageSize), Data: cur[off:end]})
		}
	}
	return out
}

// recvKey identifies one cached base on the receiver.
type recvKey struct {
	from    ids.NodeID
	lineage string
}

// recvBase is a receiver's cached base image.
type recvBase struct {
	key       recvKey
	epoch     int64
	pageSize  int
	spaceSize int64
	data      []byte
	prev      *recvBase // LRU list
	next      *recvBase
}

// Receiver reconstructs shipped images on the rfork side: full ships
// refresh an LRU cache of bases, deltas overlay a cached base. Safe for
// concurrent use (though one rfork service proc is the normal owner).
type Receiver struct {
	ep  transport.Endpoint
	nc  *trace.NetCounters
	cap int

	mu    sync.Mutex
	cache map[recvKey]*recvBase
	head  *recvBase // most recent
	tail  *recvBase // eviction candidate
}

// NewReceiver returns a delta-ship receiver on ep with a base cache of
// `capacity` lineages (<=0 means DefaultBaseCacheSize). nc (nil ok)
// counts cache misses.
func NewReceiver(ep transport.Endpoint, nc *trace.NetCounters, capacity int) *Receiver {
	if capacity <= 0 {
		capacity = DefaultBaseCacheSize
	}
	return &Receiver{ep: ep, nc: nc, cap: capacity, cache: make(map[recvKey]*recvBase)}
}

// Handle processes one rfork-port envelope. It returns the
// reconstructed image when the envelope delivered a job (legacy []byte,
// ShipFull, or an applicable ShipDelta) and (nil, false) for control
// traffic, unknown payloads, or a delta whose base is missing — in
// which case a ShipNak went back to the sender.
func (r *Receiver) Handle(env transport.Envelope) (*Image, bool) {
	switch m := env.Payload.(type) {
	case []byte:
		// Legacy full-image ship (checkpoint.Ship).
		img, err := Decode(m)
		if err != nil {
			return nil, false
		}
		return img, true
	case ShipFull:
		key := recvKey{from: env.From, lineage: m.Lineage}
		base := append([]byte(nil), m.Data...)
		r.store(&recvBase{
			key: key, epoch: m.Epoch,
			pageSize: m.PageSize, spaceSize: m.SpaceSize,
			data: base,
		})
		return &Image{
			PID:       m.PID,
			Name:      m.Name,
			PageSize:  m.PageSize,
			SpaceSize: m.SpaceSize,
			Data:      m.Data,
			Control:   m.Control,
		}, true
	case ShipDelta:
		key := recvKey{from: env.From, lineage: m.Lineage}
		r.mu.Lock()
		b := r.cache[key]
		if b == nil || b.epoch != m.BaseEpoch {
			r.mu.Unlock()
			if r.nc != nil {
				r.nc.ShipMisses.Add(1)
			}
			r.ep.Send(transport.Addr{Node: env.From, Port: RForkCtlPort},
				ShipNak{Lineage: m.Lineage, Epoch: m.BaseEpoch})
			return nil, false
		}
		r.touch(b)
		data := append([]byte(nil), b.data...)
		pageSize, spaceSize := b.pageSize, b.spaceSize
		r.mu.Unlock()
		for _, pg := range m.Pages {
			off := pg.Page * int64(pageSize)
			if off < 0 || off+int64(len(pg.Data)) > int64(len(data)) {
				return nil, false // malformed delta
			}
			copy(data[off:], pg.Data)
		}
		return &Image{
			PID:       m.PID,
			Name:      m.Name,
			PageSize:  pageSize,
			SpaceSize: spaceSize,
			Data:      data,
			Control:   m.Control,
		}, true
	case BaseInvalidate:
		r.InvalidateFrom(env.From, m.Lineage)
		return nil, false
	default:
		return nil, false
	}
}

// InvalidateFrom drops the cached base for (from, lineage): later
// deltas against it will NAK and force a fresh full ship.
func (r *Receiver) InvalidateFrom(from ids.NodeID, lineage string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.cache[recvKey{from: from, lineage: lineage}]; b != nil {
		r.remove(b)
	}
}

// InvalidateNode drops every cached base shipped by a departed peer,
// whatever its lineage, and returns how many were evicted. A restarted
// shipper knows nothing of its predecessor's sessions; purging the
// stale bases up front means its first delta (if any arrives out of
// order) NAKs instead of overlaying the wrong snapshot.
func (r *Receiver) InvalidateNode(from ids.NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for key, b := range r.cache {
		if key.from == from {
			r.remove(b)
			n++
		}
	}
	return n
}

// CachedBases returns the number of cached bases (tests, /metrics).
func (r *Receiver) CachedBases() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// store inserts (or replaces) a base and evicts LRU past capacity.
// Caller must NOT hold r.mu.
func (r *Receiver) store(b *recvBase) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.cache[b.key]; old != nil {
		r.remove(old)
	}
	r.cache[b.key] = b
	b.next = r.head
	if r.head != nil {
		r.head.prev = b
	}
	r.head = b
	if r.tail == nil {
		r.tail = b
	}
	for len(r.cache) > r.cap && r.tail != nil {
		r.remove(r.tail)
	}
}

// touch moves b to the LRU front. Caller holds r.mu.
func (r *Receiver) touch(b *recvBase) {
	if r.head == b {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if r.tail == b {
		r.tail = b.prev
	}
	b.prev = nil
	b.next = r.head
	if r.head != nil {
		r.head.prev = b
	}
	r.head = b
	if r.tail == nil {
		r.tail = b
	}
}

// remove unlinks b. Caller holds r.mu.
func (r *Receiver) remove(b *recvBase) {
	delete(r.cache, b.key)
	if b.prev != nil {
		b.prev.next = b.next
	} else if r.head == b {
		r.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if r.tail == b {
		r.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// ServeNaks runs a sender-side control loop on mbox (bound to
// RForkCtlPort), answering NAKs until the mailbox closes. Spawn it next
// to the Shipper:
//
//	ep.Spawn("rfork-ctl", func(p transport.Proc) {
//	    checkpoint.ServeNaks(p, ep.Bind(checkpoint.RForkCtlPort), shipper)
//	})
func ServeNaks(p transport.Proc, mbox transport.Mailbox, s *Shipper) {
	for {
		env, ok := mbox.Recv(p)
		if !ok {
			return
		}
		if nak, isNak := env.Payload.(ShipNak); isNak {
			s.HandleNak(p, env.From, nak)
		}
	}
}

// String renders a ship key for debugging.
func (k shipKey) String() string { return fmt.Sprintf("%v/%s", k.to, k.lineage) }
