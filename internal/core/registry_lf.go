package core

import (
	"altrun/internal/epoch"
	"altrun/internal/ids"
	"altrun/internal/trace"
)

// lfRegistry is the lock-free-read registry (the default). Every
// lookup the selection path performs — world-by-PID, subscriber
// snapshot — is a pinned epoch-guarded probe of an
// atomically-published structure; no read ever acquires a mutex, so a
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
//     copy out of whichever snapshot they loaded — exactly the view an
//     RLock taken at load time would have given.
type lfRegistry struct {
	dom    *epoch.Domain
	shards [regShardCount]lfShard

	sel *trace.SelCounters
}

// lfShard pairs the world map and the subscription index for one PID
// stripe. Writers to the two maps serialize independently (each
// epoch.Map has its own writer mutex).
type lfShard struct {
	worlds *epoch.Map[World]
	subs   *epoch.Map[subBucket]
}

// subBucket is one immutable subscriber set. Never mutated after
// publication — updates copy.
type subBucket []*World

func newLFRegistry(sel *trace.SelCounters) *lfRegistry {
	r := &lfRegistry{dom: epoch.NewDomain(), sel: sel}
	for i := range r.shards {
		r.shards[i].worlds = epoch.NewMap[World](r.dom)
		r.shards[i].subs = epoch.NewMap[subBucket](r.dom)
	}
	return r
}

// shardFor returns the shard owning pid (same striping as the locked
// baseline: dense PIDs spread on low bits).
func (r *lfRegistry) shardFor(pid ids.PID) *lfShard {
	return &r.shards[uint64(pid)&(regShardCount-1)]
}

func (r *lfRegistry) addWorld(w *World) {
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

func (r *lfRegistry) removeWorld(w *World) {
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

func (r *lfRegistry) world(pid ids.PID) *World {
	if pid <= 0 {
		return nil
	}
	g := r.dom.Pin()
	w := r.shardFor(pid).worlds.Get(pid)
	g.Unpin()
	return w
}

func (r *lfRegistry) appendSubscribers(buf []*World, pid ids.PID) []*World {
	if pid <= 0 {
		return buf
	}
	g := r.dom.Pin()
	if b := r.shardFor(pid).subs.Get(pid); b != nil {
		// The bucket slice is immutable; copying it out under the pin
		// is belt-and-braces (the slice itself is GC-protected), the
		// pin protects the table probe that found it.
		buf = append(buf, *b...)
	}
	g.Unpin()
	return buf
}

func (r *lfRegistry) dropBucket(pid ids.PID) {
	if pid <= 0 {
		return
	}
	r.shardFor(pid).subs.Delete(pid)
}

func (r *lfRegistry) snapshotWorlds() []*World {
	var out []*World
	for i := range r.shards {
		r.shards[i].worlds.Range(func(_ ids.PID, w *World) bool {
			out = append(out, w)
			return true
		})
	}
	return out
}
