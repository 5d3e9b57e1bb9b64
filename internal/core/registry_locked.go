package core

import (
	"sync"

	"altrun/internal/ids"
	"altrun/internal/trace"
)

// lockedRegistry is the RWMutex-sharded registry that preceded the
// lock-free default — kept intact as the A/B baseline behind
// Config.LockedRegistry so selbench can quantify the lock removal.
// Reads take one shard RLock.

// regShard is one lock stripe of the registry. Worlds and subscription
// buckets are both sharded by PID — a world lives in the shard of its
// own PID; a subscription bucket lives in the shard of the *assumed*
// PID.
type regShard struct {
	mu     sync.RWMutex
	worlds map[ids.PID]*World
	// subs maps an assumed PID to the worlds whose predicate sets
	// mention it. Bucket membership is a set (worlds subscribe once).
	subs map[ids.PID]map[*World]struct{}
}

// lockedRegistry is the sharded world registry.
type lockedRegistry struct {
	shards [regShardCount]regShard

	sel *trace.SelCounters
}

func newLockedRegistry(sel *trace.SelCounters) *lockedRegistry {
	r := &lockedRegistry{sel: sel}
	for i := range r.shards {
		r.shards[i].worlds = make(map[ids.PID]*World)
		r.shards[i].subs = make(map[ids.PID]map[*World]struct{})
	}
	return r
}

// shardFor returns the shard owning pid. PIDs are dense small integers
// from one generator, so the low bits alone stripe evenly.
func (r *lockedRegistry) shardFor(pid ids.PID) *regShard {
	return &r.shards[uint64(pid)&(regShardCount-1)]
}

// rlock read-locks s, counting the acquisitions that found the shard
// held (the contention the sharding exists to avoid).
func (r *lockedRegistry) rlock(s *regShard) {
	if !s.mu.TryRLock() {
		r.sel.ShardContention.Add(1)
		s.mu.RLock()
	}
}

// lock write-locks s with the same contention accounting.
func (r *lockedRegistry) lock(s *regShard) {
	if !s.mu.TryLock() {
		r.sel.ShardContention.Add(1)
		s.mu.Lock()
	}
}

func (r *lockedRegistry) addWorld(w *World) {
	s := r.shardFor(w.pid)
	r.lock(s)
	s.worlds[w.pid] = w
	s.mu.Unlock()
	for _, p := range w.subPIDs {
		ss := r.shardFor(p)
		r.lock(ss)
		b := ss.subs[p]
		if b == nil {
			b = make(map[*World]struct{}, 2)
			ss.subs[p] = b
		}
		b[w] = struct{}{}
		ss.mu.Unlock()
	}
}

func (r *lockedRegistry) removeWorld(w *World) {
	s := r.shardFor(w.pid)
	r.lock(s)
	delete(s.worlds, w.pid)
	s.mu.Unlock()
	for _, p := range w.subPIDs {
		ss := r.shardFor(p)
		r.lock(ss)
		if b, ok := ss.subs[p]; ok {
			delete(b, w)
			if len(b) == 0 {
				delete(ss.subs, p)
			}
		}
		ss.mu.Unlock()
	}
}

func (r *lockedRegistry) world(pid ids.PID) *World {
	s := r.shardFor(pid)
	r.rlock(s)
	w := s.worlds[pid]
	s.mu.RUnlock()
	return w
}

func (r *lockedRegistry) appendSubscribers(buf []*World, pid ids.PID) []*World {
	s := r.shardFor(pid)
	r.rlock(s)
	for w := range s.subs[pid] {
		buf = append(buf, w)
	}
	s.mu.RUnlock()
	return buf
}

func (r *lockedRegistry) dropBucket(pid ids.PID) {
	s := r.shardFor(pid)
	r.lock(s)
	delete(s.subs, pid)
	s.mu.Unlock()
}

func (r *lockedRegistry) snapshotWorlds() []*World {
	var out []*World
	for i := range r.shards {
		s := &r.shards[i]
		r.rlock(s)
		for _, w := range s.worlds {
			out = append(out, w)
		}
		s.mu.RUnlock()
	}
	return out
}
