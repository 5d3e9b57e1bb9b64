package membership

import (
	"sort"

	"altrun/internal/ids"
)

// Ring is an immutable consistent-hash ring over a member set:
// each node contributes `replicas` virtual points hashed onto a
// 64-bit circle, and Lookup walks clockwise from the key's hash.
// Keying rfork placement by job lineage means all jobs of one kind
// land on the same peer, and a node join/leave only remaps the 1/n arc
// it owns instead of reshuffling every lineage the way argmin-load
// placement does.
//
// The agent rebuilds the ring on view changes and swaps the pointer;
// readers never mutate it, so Lookup and Walk are safe without locks.
type Ring struct {
	points []ringPoint
	nodes  int
}

type ringPoint struct {
	hash uint64
	node ids.NodeID
}

// DefaultReplicas is the virtual-node count per member. 64 points per
// node keeps the max/mean arc imbalance under ~30% at 16–64 nodes.
const DefaultReplicas = 64

// NewRing builds a ring over the given nodes. Replicas ≤ 0 uses
// DefaultReplicas. An empty node set yields a ring whose lookups miss.
func NewRing(nodes []ids.NodeID, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(nodes)*replicas),
		nodes:  len(nodes),
	}
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Nodes returns how many distinct members the ring was built from.
func (r *Ring) Nodes() int {
	if r == nil {
		return 0
	}
	return r.nodes
}

// Lookup returns the owner of key: the first virtual point at or after
// the key's hash, wrapping at the top of the circle.
func (r *Ring) Lookup(key string) (ids.NodeID, bool) {
	var out ids.NodeID
	ok := false
	r.Walk(key, func(n ids.NodeID) bool {
		out, ok = n, true
		return false
	})
	return out, ok
}

// Walk visits the distinct nodes that succeed key on the ring, in
// ring order starting from its owner, until fn returns false or every
// node has been offered. Placement uses this to skip saturated or
// suspected owners without re-hashing.
func (r *Ring) Walk(key string, fn func(ids.NodeID) bool) {
	if r == nil || len(r.points) == 0 {
		return
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[ids.NodeID]struct{}, r.nodes)
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		if !fn(p.node) {
			return
		}
		if len(seen) == r.nodes {
			return
		}
	}
}

// FNV-1a 64-bit, inlined so key hashing stays allocation-free.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 is the splitmix64 finalizer. FNV-1a alone avalanches poorly in
// the high bits for short, similar inputs (sequential node IDs, lineage
// keys differing in a digit), and ring position is ordered by the high
// bits — without this the circle develops dead arcs.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func keyHash(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// vnodeHash places a node's virtual points by hashing the node ID and
// replica index bytes through the same FNV stream plus finalizer.
func vnodeHash(n ids.NodeID, replica int) uint64 {
	h := uint64(fnvOffset)
	v := uint64(uint32(n))
	for i := 0; i < 4; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	w := uint64(uint32(replica))
	for i := 0; i < 4; i++ {
		h ^= (w >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return mix64(h)
}
