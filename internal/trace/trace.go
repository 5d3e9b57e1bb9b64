// Package trace holds the runtime's atomic counters: selection-path
// work (SelCounters), service-pool admission (PoolCounters) and the
// network fabric (NetCounters). They count the overhead contributors
// that the paper's §4 analysis decomposes into setup, runtime and
// selection overhead, and are cheap enough to stay on always.
package trace

import "sync/atomic"

// SelCounters counts selection-path work: predicate resolutions, the
// worlds each resolution actually touched (the affected set), and
// contention on the sharded world registry. The selection-overhead
// benchmark reads them to verify the O(affected-set) claim.
type SelCounters struct {
	// Resolutions counts resolution events applied by the propagation
	// engine (one per process whose fate was decided).
	Resolutions atomic.Int64
	// SubscribersVisited counts worlds visited across all resolutions:
	// SubscribersVisited/Resolutions is the mean affected-set size.
	SubscribersVisited atomic.Int64
	// Eliminations counts worlds eliminated by cascades.
	Eliminations atomic.Int64
	// Contradictions counts worlds whose assumptions a resolved fate
	// contradicted, each of which is then eliminated.
	Contradictions atomic.Int64
	// WorldSplits counts server versions forked by a split decision of
	// the message layer (one per assume-copy).
	WorldSplits atomic.Int64
	// ShardContention always reads 0: the world registry's read path
	// takes no lock. It stays because the benchmark of record reports
	// core.shard_contention_per_kblock from it.
	ShardContention atomic.Int64
	// AliasWalks always reads 0: a send to a split server is one
	// enqueue on its receive loop, with no alias chain to walk. It stays
	// because the benchmark of record reports core.alias_walks_per_block
	// from it.
	AliasWalks atomic.Int64
}

// SelSnapshot is a point-in-time copy of SelCounters.
type SelSnapshot struct {
	Resolutions        int64 `json:"resolutions"`
	SubscribersVisited int64 `json:"subscribers_visited"`
	Eliminations       int64 `json:"eliminations"`
	Contradictions     int64 `json:"contradictions"`
	WorldSplits        int64 `json:"world_splits"`
	ShardContention    int64 `json:"shard_contention"`
	AliasWalks         int64 `json:"alias_walks"`
}

// Snapshot reads all counters. Nil-safe: a nil receiver reads as zero.
func (c *SelCounters) Snapshot() SelSnapshot {
	if c == nil {
		return SelSnapshot{}
	}
	return SelSnapshot{
		Resolutions:        c.Resolutions.Load(),
		SubscribersVisited: c.SubscribersVisited.Load(),
		Eliminations:       c.Eliminations.Load(),
		Contradictions:     c.Contradictions.Load(),
		WorldSplits:        c.WorldSplits.Load(),
		ShardContention:    c.ShardContention.Load(),
		AliasWalks:         c.AliasWalks.Load(),
	}
}

// PoolCounters counts the admission-control work of a service pool
// (internal/serve): jobs through the admission gate, speculation-budget
// token traffic, and the machine-wide population of live speculative
// worlds. Like SelCounters they are plain atomics, cheap enough to stay
// on always; a daemon's /metrics endpoint snapshots them.
type PoolCounters struct {
	// JobsSubmitted counts jobs accepted into the queue.
	JobsSubmitted atomic.Int64
	// JobsRejected counts jobs refused at admission (queue full or
	// pool draining).
	JobsRejected atomic.Int64
	// JobsCompleted counts jobs whose block committed an alternative.
	JobsCompleted atomic.Int64
	// JobsFailed counts jobs whose every alternative failed (or whose
	// setup errored).
	JobsFailed atomic.Int64
	// JobsTimedOut counts jobs killed by their deadline.
	JobsTimedOut atomic.Int64
	// JobsCancelled counts jobs abandoned by the caller.
	JobsCancelled atomic.Int64
	// Waves counts alternative waves spawned (≥1 per executed job).
	Waves atomic.Int64
	// LazyWaves counts waves after the first — alternatives spawned
	// lazily because the admitted wave failed.
	LazyWaves atomic.Int64
	// AltsUnspawned counts alternatives never spawned because an
	// earlier wave committed first — the work the §4.2 overhead model
	// says speculation throttling saves.
	AltsUnspawned atomic.Int64
	// TokenWaits counts budget acquisitions that had to block for a
	// token (the admission gate actually throttling).
	TokenWaits atomic.Int64
	// SpecLive is the gauge of currently-live speculative worlds as
	// seen by the pool's world observer.
	SpecLive atomic.Int64
	// SpecHighWater is the maximum SpecLive ever observed — the number
	// the speculation budget must bound.
	SpecHighWater atomic.Int64
}

// PoolSnapshot is a point-in-time copy of PoolCounters.
type PoolSnapshot struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsTimedOut  int64 `json:"jobs_timed_out"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	Waves         int64 `json:"waves"`
	LazyWaves     int64 `json:"lazy_waves"`
	AltsUnspawned int64 `json:"alts_unspawned"`
	TokenWaits    int64 `json:"token_waits"`
	SpecLive      int64 `json:"spec_live"`
	SpecHighWater int64 `json:"spec_high_water"`
}

// Snapshot reads all counters. Nil-safe, matching SelCounters.
func (c *PoolCounters) Snapshot() PoolSnapshot {
	if c == nil {
		return PoolSnapshot{}
	}
	return PoolSnapshot{
		JobsSubmitted: c.JobsSubmitted.Load(),
		JobsRejected:  c.JobsRejected.Load(),
		JobsCompleted: c.JobsCompleted.Load(),
		JobsFailed:    c.JobsFailed.Load(),
		JobsTimedOut:  c.JobsTimedOut.Load(),
		JobsCancelled: c.JobsCancelled.Load(),
		Waves:         c.Waves.Load(),
		LazyWaves:     c.LazyWaves.Load(),
		AltsUnspawned: c.AltsUnspawned.Load(),
		TokenWaits:    c.TokenWaits.Load(),
		SpecLive:      c.SpecLive.Load(),
		SpecHighWater: c.SpecHighWater.Load(),
	}
}

// SpecEnter bumps the live-speculative-worlds gauge and raises the
// high-water mark.
func (c *PoolCounters) SpecEnter() {
	v := c.SpecLive.Add(1)
	for {
		hw := c.SpecHighWater.Load()
		if v <= hw || c.SpecHighWater.CompareAndSwap(hw, v) {
			return
		}
	}
}

// SpecExit drops the live-speculative-worlds gauge.
func (c *PoolCounters) SpecExit() { c.SpecLive.Add(-1) }
