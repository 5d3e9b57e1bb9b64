package core

import (
	"altrun/internal/epoch"
	"altrun/internal/ids"
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
//     never touched. Subscriptions are established at registration
//     (a world's assumption *universe* is fixed then — resolution only
//     ever removes assumptions, §3.4.2) and torn down at
//     unregistration or when the subject PID itself resolves.
//
// Where a split receiver's messages go (§3.4.2) is not recorded here:
// the copies are the forked original's children in the process table,
// and Runtime.appendCopies resolves a destination through that.
//
// Every read path — world lookup, subscriber snapshot — is lock-free: a
// pinned epoch-guarded probe of an atomically-published structure, so a
// propagation cascade on one commit cannot stall lookups from any
// other, and 64 goroutines committing concurrently contend only on
// their own shard's writer lock (and the commit arbiter, which is the
// protocol's own serialization point, not an implementation one).
//
//   - worlds: per-shard epoch.Map[World] — open-addressed PID→*World
//     tables swapped wholesale on growth and reclaimed through the
//     registry's epoch domain, so a reader mid-probe never races a
//     table recycle;
//   - subs: per-shard epoch.Map of immutable copy-on-write []*World
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
	dom    *epoch.Domain
	shards [regShardCount]regShard
}

// regShard pairs the world map and the subscription index for one PID
// stripe. A world lives in the shard of its own PID; a subscription
// bucket lives in the shard of the *assumed* PID. Writers to the two
// maps serialize independently (each epoch.Map has its own writer
// mutex).
type regShard struct {
	worlds *epoch.Map[World]
	subs   *epoch.Map[subBucket]
}

// subBucket is one immutable subscriber set. Never mutated after
// publication — updates copy.
type subBucket []*World

func newRegistry() *registry {
	r := &registry{dom: epoch.NewDomain()}
	for i := range r.shards {
		r.shards[i].worlds = epoch.NewMap[World](r.dom)
		r.shards[i].subs = epoch.NewMap[subBucket](r.dom)
	}
	return r
}

// shardFor returns the shard owning pid. PIDs are dense small integers
// from one generator, so the low bits alone stripe evenly.
func (r *registry) shardFor(pid ids.PID) *regShard {
	return &r.shards[uint64(pid)&(regShardCount-1)]
}

// addWorld publishes w and subscribes it to every PID in w.subPIDs
// (fixed before the call — written once, at registration, before the
// world is visible to anyone).
func (r *registry) addWorld(w *World) {
	r.shardFor(w.pid).worlds.Set(w.pid, w)
	for _, p := range w.subPIDs {
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

// removeWorld unpublishes w and tears down its subscriptions. Buckets
// already dropped (their PID resolved) are skipped.
func (r *registry) removeWorld(w *World) {
	r.shardFor(w.pid).worlds.Delete(w.pid)
	for _, p := range w.subPIDs {
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
	g := r.dom.Pin()
	w := r.shardFor(pid).worlds.Get(pid)
	g.Unpin()
	return w
}

// appendSubscribers appends a snapshot of pid's subscription bucket —
// the affected set of resolving pid — to buf. It only appends, never
// clobbering what buf already holds.
func (r *registry) appendSubscribers(buf []*World, pid ids.PID) []*World {
	if pid <= 0 {
		return buf
	}
	g := r.dom.Pin()
	if b := r.shardFor(pid).subs.Get(pid); b != nil {
		// The bucket slice is immutable; the pin protects the table
		// probe that found it.
		buf = append(buf, *b...)
	}
	g.Unpin()
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
