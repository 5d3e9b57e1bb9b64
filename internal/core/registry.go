package core

import (
	"altrun/internal/ids"
	"altrun/internal/pidmap"
)

// This file is the world registry behind Runtime: who is live and which
// worlds care about which process fates. The two structures exist to
// make *selection* — commit, sibling elimination, predicate resolution
// (§3.2.1, §3.4.2) — scale with the affected set instead of the live
// set:
//
//   - a sharded PID→World map;
//   - a predicate-subscription index: assumed PID → the worlds whose
//     predicate sets mention it. A resolution event visits exactly its
//     subscribers; worlds with no stake in the resolved process are
//     never touched. A world is published in the map at registration
//     but subscribes only when it activates (Runtime.activate): at
//     registration for roots, servers and split copies, and on first
//     use — a send, a receive, a delivery, console access — for an
//     alternative-block child, whose own siblings its block eliminates
//     directly. Its assumption *universe* is fixed at activation
//     (resolution only ever removes assumptions, §3.4.2); the
//     subscriptions are torn down at unregistration or when the subject
//     PID itself resolves. A child that never communicates never
//     subscribes.
//
// A split server's copies (§3.4.2) are versions in its one receive
// loop: a send to the server is one enqueue there (Runtime.deliver), and
// only the server's address outliving its first version is recorded
// outside this registry (Runtime.servers).
//
// Every read path — world lookup, subscriber snapshot — is lock-free,
// atomic loads and nothing else, so a propagation cascade on one commit
// cannot stall lookups from any other, and 64 goroutines committing
// concurrently contend only on their own shard's writer lock (and the
// commit arbiter, which is the protocol's own serialization point, not
// an implementation one).
//
//   - worlds: per-shard pidmap.Map[World] — open-addressed PID→*World
//     tables swapped wholesale on growth; a reader mid-probe keeps
//     walking the table it loaded, and the GC frees it afterwards;
//   - subs: per-shard pidmap.Map of immutable copy-on-write []*World
//     buckets. Writers publish a fresh slice per mutation; readers
//     copy out of whichever snapshot they loaded.
//
// The registry implements the model in spec/altcommit.tla; see DESIGN
// §10 for the action↔function mapping.

// regShardCount is the number of registry shards. Power of two; 16 is
// plenty to keep unrelated blocks off each other's writer locks without
// bloating small runtimes.
const regShardCount = 16

// registry is the world registry. world and appendSubscribers (the
// selection path) are safe for unbounded concurrency with writers.
type registry struct {
	shards [regShardCount]regShard
}

// regShard pairs the world map and the subscription index for one PID
// stripe. A world lives in the shard of its own PID; a subscription
// bucket lives in the shard of the *assumed* PID. Writers to the two
// maps serialize independently (each pidmap.Map has its own writer
// mutex).
type regShard struct {
	worlds *pidmap.Map[World]
	subs   *pidmap.Map[subBucket]
}

// subBucket is one immutable subscriber set. Never mutated after
// publication — updates copy.
type subBucket []*World

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].worlds = pidmap.NewMap[World]()
		r.shards[i].subs = pidmap.NewMap[subBucket]()
	}
	return r
}

// shardFor returns the shard owning pid. PIDs are dense small integers
// from one generator, so the low bits alone stripe evenly.
func (r *registry) shardFor(pid ids.PID) *regShard {
	return &r.shards[uint64(pid)&(regShardCount-1)]
}

// addWorld publishes w in the world map.
func (r *registry) addWorld(w *World) {
	r.shardFor(w.pid).worlds.Set(w.pid, w)
}

// removeWorld unpublishes w.
func (r *registry) removeWorld(w *World) {
	r.shardFor(w.pid).worlds.Delete(w.pid)
}

// subscribe adds w to the subscription bucket of every PID in pids.
func (r *registry) subscribe(w *World, pids []ids.PID) {
	for _, p := range pids {
		r.shardFor(p).subs.Update(p, func(old *subBucket) *subBucket {
			if old == nil {
				b := subBucket{w}
				return &b
			}
			for _, x := range *old {
				if x == w {
					return old // already subscribed (bucket is a set)
				}
			}
			b := make(subBucket, len(*old), len(*old)+1)
			copy(b, *old)
			b = append(b, w)
			return &b
		})
	}
}

// unsubscribe removes w from the subscription bucket of every PID in
// pids. Buckets already dropped (their PID resolved) are skipped.
func (r *registry) unsubscribe(w *World, pids []ids.PID) {
	for _, p := range pids {
		r.shardFor(p).subs.Update(p, func(old *subBucket) *subBucket {
			if old == nil {
				return nil // bucket already dropped (its PID resolved)
			}
			b := make(subBucket, 0, len(*old))
			for _, x := range *old {
				if x != w {
					b = append(b, x)
				}
			}
			if len(b) == 0 {
				return nil // deletes the entry
			}
			return &b
		})
	}
}

// world returns the live world for pid, or nil.
func (r *registry) world(pid ids.PID) *World {
	if pid <= 0 {
		return nil
	}
	return r.shardFor(pid).worlds.Get(pid)
}

// appendSubscribers appends a snapshot of pid's subscription bucket —
// the affected set of resolving pid — to buf. It only appends, never
// clobbering what buf already holds.
func (r *registry) appendSubscribers(buf []*World, pid ids.PID) []*World {
	if pid <= 0 {
		return buf
	}
	if b := r.shardFor(pid).subs.Get(pid); b != nil {
		buf = append(buf, *b...) // the bucket slice is immutable
	}
	return buf
}

// dropBucket discards pid's subscription bucket. Called after pid's
// fate has been resolved and propagated: a PID resolves at most once
// (identifiers are never reused), so the bucket can never be consulted
// again — surviving subscribers were Simplified and no longer mention
// pid.
func (r *registry) dropBucket(pid ids.PID) {
	if pid <= 0 {
		return
	}
	r.shardFor(pid).subs.Delete(pid)
}

// snapshotWorlds returns all live worlds (diagnostic/test path; the
// selection path never calls it).
func (r *registry) snapshotWorlds() []*World {
	var out []*World
	for i := range r.shards {
		r.shards[i].worlds.Range(func(_ ids.PID, w *World) bool {
			out = append(out, w)
			return true
		})
	}
	return out
}
