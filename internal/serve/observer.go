package serve

import (
	"sync"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
)

// altObserver is the pool's always-on wave probe: it turns core's
// per-child events into History statistics — a play for every
// alternative that ran, the τ EWMA from spawn→exit latency (winners and
// too-late losers both measure their alternative's cost), failure counts
// from guard-fails, and the kind's realized winner-τ. It is stacked under
// the flight recorder's sampled probe via core.FanoutProbe, so the
// bandit ranking and the PI model learn from every job, not just sampled
// ones.
//
// One observer serves all of a job's waves: child PIDs are unique per
// spawn, so the open map never collides across waves.
type altObserver struct {
	hist *History
	kind string

	mu   sync.Mutex
	open map[ids.PID]altSpawn
}

type altSpawn struct {
	name string
	at   time.Time
}

var _ core.AltProbe = (*altObserver)(nil)

func newAltObserver(hist *History, kind string) *altObserver {
	return &altObserver{hist: hist, kind: kind, open: make(map[ids.PID]altSpawn, 4)}
}

// ChildSpawned implements core.AltProbe: open the child's latency clock.
func (o *altObserver) ChildSpawned(pid ids.PID, name string, now time.Time) {
	o.mu.Lock()
	o.open[pid] = altSpawn{name: name, at: now}
	o.mu.Unlock()
}

// SetupDone implements core.AltProbe.
func (o *altObserver) SetupDone(time.Time, int) {}

// ChildFault implements core.AltProbe.
func (o *altObserver) ChildFault(ids.PID, int64, time.Time) {}

// ChildExit implements core.AltProbe: resolve the play into the stats.
// An alternative eliminated before it started is not a play: the block
// runs its first alternative first, so every sibling of the usual winner
// would otherwise collect plays without ever running, and its win rate
// would decay until the bandit ordering never picked it again.
func (o *altObserver) ChildExit(pid ids.PID, outcome string, now time.Time, _ int64) {
	o.mu.Lock()
	sp, ok := o.open[pid]
	delete(o.open, pid)
	o.mu.Unlock()
	if !ok || outcome == core.OutcomeUnstarted {
		return
	}
	o.hist.RecordPlay(o.kind, sp.name)
	switch outcome {
	case core.OutcomeWin:
		o.hist.Record(o.kind, sp.name, now.Sub(sp.at))
	case core.OutcomeTooLate:
		o.hist.RecordTooLate(o.kind, sp.name, now.Sub(sp.at))
	case core.OutcomeGuardFail:
		o.hist.RecordFail(o.kind, sp.name)
	case core.OutcomeCancelled:
		// Elimination casualty: it ran and lost this race, so the play
		// counts, but it is neither a failure nor a τ sample.
	}
}

// Committed implements core.AltProbe.
func (o *altObserver) Committed(ids.PID, time.Time) {}
