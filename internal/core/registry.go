package core

import (
	"altrun/internal/ids"
	"altrun/internal/trace"
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
// Two implementations exist behind the worldRegistry interface:
//
//   - lfRegistry (default): every read path — world lookup, subscriber
//     snapshot — is lock-free. World and subscription maps are
//     epoch-reclaimed open-addressed tables (internal/epoch);
//     subscription buckets are immutable copy-on-write slices. A
//     commit cascade acquires zero mutexes on its lookup side; only
//     registration/unregistration (writers) serialize, per shard.
//   - lockedRegistry: the previous RWMutex-sharded design, kept as the
//     A/B baseline selected by Config.LockedRegistry so selbench can
//     measure exactly what the lock removal buys.
//
// Both implement the model in spec/altcommit.tla; see DESIGN §10 for
// the action↔function mapping.

// regShardCount is the number of registry shards. Power of two; 16 is
// plenty to keep unrelated blocks off each other's locks without
// bloating small runtimes.
const regShardCount = 16

// worldRegistry is the registry contract Runtime depends on. Methods
// on the selection path (world, appendSubscribers) must be safe for
// unbounded concurrency with writers; appendSubscribers must only
// append to buf, never clobber it.
type worldRegistry interface {
	// addWorld publishes w and subscribes it to every PID in w.subPIDs
	// (fixed before the call — written once, at registration, before
	// the world is visible to anyone).
	addWorld(w *World)
	// removeWorld unpublishes w and tears down its subscriptions.
	// Buckets already dropped (their PID resolved) are skipped.
	removeWorld(w *World)
	// world returns the live world for pid, or nil.
	world(pid ids.PID) *World
	// appendSubscribers appends a snapshot of pid's subscription bucket
	// — the affected set of resolving pid — to buf.
	appendSubscribers(buf []*World, pid ids.PID) []*World
	// dropBucket discards pid's subscription bucket. Called after pid's
	// fate has been resolved and propagated: a PID resolves at most
	// once (identifiers are never reused), so the bucket can never be
	// consulted again — surviving subscribers were Simplified and no
	// longer mention pid.
	dropBucket(pid ids.PID)
	// snapshotWorlds returns all live worlds (diagnostic/test path; the
	// selection path never calls it).
	snapshotWorlds() []*World
}

// newRegistry returns the registry implementation selected by locked:
// the lock-free default, or the RWMutex baseline for A/B comparison.
func newRegistry(sel *trace.SelCounters, locked bool) worldRegistry {
	if locked {
		return newLockedRegistry(sel)
	}
	return newLFRegistry(sel)
}
