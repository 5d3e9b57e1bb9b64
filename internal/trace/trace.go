// Package trace records structured runtime events. The experiment
// harness uses it to count overhead contributors (spawns, page copies,
// eliminations, message-layer decisions) that the paper's §4 analysis
// decomposes into setup, runtime, and selection overhead.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
)

// Kind classifies an event.
type Kind int

// Event kinds, covering the lifecycle the paper describes in §3.
const (
	KindSpawn Kind = iota + 1
	KindGuardPass
	KindGuardFail
	KindCommit
	KindTooLate
	KindEliminate
	KindBlockFail
	KindTimeout
	KindPageCopy
	KindPageFault
	KindCompaction
	KindMsgSend
	KindMsgAccept
	KindMsgIgnore
	KindMsgSplit
	KindWorldSplit
	KindContradiction
	KindSourceBlocked
	KindSourceOp
	KindCheckpoint
	KindRestore
	KindVote
)

var kindNames = map[Kind]string{
	KindSpawn:         "spawn",
	KindGuardPass:     "guard-pass",
	KindGuardFail:     "guard-fail",
	KindCommit:        "commit",
	KindTooLate:       "too-late",
	KindEliminate:     "eliminate",
	KindBlockFail:     "block-fail",
	KindTimeout:       "timeout",
	KindPageCopy:      "page-copy",
	KindPageFault:     "page-fault",
	KindCompaction:    "compaction",
	KindMsgSend:       "msg-send",
	KindMsgAccept:     "msg-accept",
	KindMsgIgnore:     "msg-ignore",
	KindMsgSplit:      "msg-split",
	KindWorldSplit:    "world-split",
	KindContradiction: "contradiction",
	KindSourceBlocked: "source-blocked",
	KindSourceOp:      "source-op",
	KindCheckpoint:    "checkpoint",
	KindRestore:       "restore",
	KindVote:          "vote",
}

// String renders the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	Time   time.Time
	Kind   Kind
	PID    ids.PID
	Detail string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s %s %v %s", e.Time.Format("15:04:05.000000"), e.Kind, e.PID, e.Detail)
}

// Log is an event log, safe for concurrent use. A nil *Log is valid
// and discards everything, so tracing can be disabled without branches
// at call sites.
//
// By default the log is unbounded — the right mode for experiments,
// which want every event. A capped log (NewLogCapped) is a ring buffer
// that keeps only the most recent cap events and counts the rest as
// dropped, so a long-running daemon can leave tracing on without the
// log growing without bound.
type Log struct {
	mu     sync.Mutex
	cap    int // 0 = unbounded
	events []Event
	// head indexes the oldest event once the ring has wrapped.
	head    int
	wrapped bool
	dropped uint64
}

// NewLog returns an empty, unbounded log.
func NewLog() *Log { return &Log{} }

// DefaultLogCap is the ring size a capped log gets when the requested
// cap is not positive — sized for a daemon's /metrics debugging window,
// not for whole-experiment traces.
const DefaultLogCap = 65536

// NewLogCapped returns an empty log bounded to the most recent cap
// events (DefaultLogCap if cap <= 0). When full, each append overwrites
// the oldest event and increments Dropped.
func NewLogCapped(cap int) *Log {
	if cap <= 0 {
		cap = DefaultLogCap
	}
	return &Log{cap: cap}
}

// Cap returns the ring capacity (0 = unbounded).
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cap
}

// Dropped returns how many events have been overwritten by the ring.
// Always zero for an unbounded log.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Add appends an event. No-op on a nil log.
func (l *Log) Add(t time.Time, kind Kind, pid ids.PID, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := Event{Time: t, Kind: kind, PID: pid, Detail: detail}
	if l.cap > 0 && len(l.events) == l.cap {
		l.events[l.head] = ev
		l.head++
		if l.head == l.cap {
			l.head = 0
		}
		l.wrapped = true
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Addf appends an event with a formatted detail string.
func (l *Log) Addf(t time.Time, kind Kind, pid ids.PID, format string, args ...any) {
	if l == nil {
		return
	}
	l.Add(t, kind, pid, fmt.Sprintf(format, args...))
}

// Events returns a copy of the recorded events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	if l.wrapped {
		n := copy(out, l.events[l.head:])
		copy(out[n:], l.events[:l.head])
	} else {
		copy(out, l.events)
	}
	return out
}

// Count returns how many events of the given kind were recorded.
func (l *Log) Count(kind Kind) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Len returns the total number of events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards all events (the cap, if any, is kept).
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
	l.head = 0
	l.wrapped = false
	l.dropped = 0
}

// SelCounters counts selection-path work: predicate resolutions, the
// worlds each resolution actually touched (the affected set), and
// contention on the sharded world registry. Unlike Log events these are
// plain atomic counters, cheap enough to stay on even when tracing is
// disabled — the selection-overhead benchmark reads them to verify the
// O(affected-set) claim.
type SelCounters struct {
	// Resolutions counts resolution events applied by the propagation
	// engine (one per process whose fate was decided).
	Resolutions atomic.Int64
	// SubscribersVisited counts worlds visited across all resolutions:
	// SubscribersVisited/Resolutions is the mean affected-set size.
	SubscribersVisited atomic.Int64
	// Eliminations counts worlds eliminated by cascades.
	Eliminations atomic.Int64
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
	Resolutions        int64
	SubscribersVisited int64
	Eliminations       int64
	ShardContention    int64
	AliasWalks         int64
}

// Snapshot reads all counters. Nil-safe: a nil receiver reads as zero,
// matching the nil-*Log convention.
func (c *SelCounters) Snapshot() SelSnapshot {
	if c == nil {
		return SelSnapshot{}
	}
	return SelSnapshot{
		Resolutions:        c.Resolutions.Load(),
		SubscribersVisited: c.SubscribersVisited.Load(),
		Eliminations:       c.Eliminations.Load(),
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

// Dump renders the whole log, one event per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
