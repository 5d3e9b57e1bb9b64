package obs

import (
	"sync"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
)

// EventKind labels one flight-recorder event.
type EventKind uint8

// Event kinds, in rough causal order within a wave.
const (
	EvWaveStart EventKind = iota + 1
	EvSpawn
	EvSetupDone
	EvFault
	EvGuardFail
	EvTooLate
	EvWin
	EvCommit
	EvWaveEnd
)

var eventKindNames = [...]string{
	EvWaveStart: "wave-start",
	EvSpawn:     "spawn",
	EvSetupDone: "setup-done",
	EvFault:     "fault",
	EvGuardFail: "guard-fail",
	EvTooLate:   "too-late",
	EvWin:       "win",
	EvCommit:    "commit",
	EvWaveEnd:   "wave-end",
}

// String renders the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind for JSON timelines.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is MarshalText's inverse, so exported timelines (the
// /debug/blocks payload, BENCH_obs.json) parse back.
func (k *EventKind) UnmarshalText(text []byte) error {
	for i, n := range eventKindNames {
		if n == string(text) {
			*k = EventKind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one recorded occurrence inside a block.
type Event struct {
	At   time.Time `json:"at"`
	Kind EventKind `json:"kind"`
	Wave int       `json:"wave"`
	PID  ids.PID   `json:"pid,omitempty"`
	Name string    `json:"name,omitempty"`
	// N carries the kind's magnitude: pages copied for fault events,
	// total COW copies for exit events, spawned children for setup-done.
	N int64 `json:"n,omitempty"`
}

// waveSpan is one wave's phase stamps, filled by the probe callbacks.
type waveSpan struct {
	start     time.Time
	setupDone time.Time
	winAt     time.Time
	end       time.Time
	err       string
}

// Block is one sampled block being recorded. A nil *Block is the
// unsampled case: every method no-ops, so callers never branch.
type Block struct {
	rec     *Recorder
	id      uint64
	kind    string
	name    string
	traceID string
	start   time.Time

	mu     sync.Mutex
	events []Event
	waves  []waveSpan
	// gen invalidates outstanding Waves when the block finishes: a
	// losing sibling can still be unwinding (reporting too-late or a
	// last fault) after the winner committed and the block — possibly
	// already recycled from the pool — must not absorb its events.
	gen uint64
}

// ID returns the block identifier passed to StartBlock. Nil-safe.
func (b *Block) ID() uint64 {
	if b == nil {
		return 0
	}
	return b.id
}

// StartWave opens wave recording; pass the returned Wave's Probe to
// core.Options. Nil-safe: a nil block returns a nil wave.
func (b *Block) StartWave(alts int) *Wave {
	if b == nil {
		return nil
	}
	now := time.Now()
	b.mu.Lock()
	idx := len(b.waves)
	b.waves = append(b.waves, waveSpan{start: now})
	b.events = append(b.events, Event{At: now, Kind: EvWaveStart, Wave: idx, N: int64(alts)})
	gen := b.gen
	b.mu.Unlock()
	return &Wave{b: b, idx: idx, gen: gen}
}

// Wave records one RunAlt wave of a sampled block and implements
// core.AltProbe. A nil *Wave no-ops.
type Wave struct {
	b   *Block
	idx int
	gen uint64
}

// locked returns the wave's block with its lock held, or nil if the
// block has since finished (stale stragglers drop their events).
func (w *Wave) locked() *Block {
	w.b.mu.Lock()
	if w.b.gen != w.gen {
		w.b.mu.Unlock()
		return nil
	}
	return w.b
}

var _ core.AltProbe = (*Wave)(nil)

// Probe returns the wave as a core.AltProbe, or a nil interface for a
// nil wave — so core's "Probe == nil" fast path stays intact on
// unsampled blocks.
func (w *Wave) Probe() core.AltProbe {
	if w == nil {
		return nil
	}
	return w
}

// ChildSpawned implements core.AltProbe.
func (w *Wave) ChildSpawned(pid ids.PID, name string, now time.Time) {
	if w == nil {
		return
	}
	b := w.locked()
	if b == nil {
		return
	}
	b.events = append(b.events, Event{At: now, Kind: EvSpawn, Wave: w.idx, PID: pid, Name: name})
	b.mu.Unlock()
}

// SetupDone implements core.AltProbe: the paper's setup phase ends.
func (w *Wave) SetupDone(now time.Time, spawned int) {
	if w == nil {
		return
	}
	b := w.locked()
	if b == nil {
		return
	}
	b.waves[w.idx].setupDone = now
	b.events = append(b.events, Event{At: now, Kind: EvSetupDone, Wave: w.idx, N: int64(spawned)})
	b.mu.Unlock()
}

// ChildFault implements core.AltProbe: a COW write fault copied pages.
func (w *Wave) ChildFault(pid ids.PID, pages int64, now time.Time) {
	if w == nil {
		return
	}
	b := w.locked()
	if b == nil {
		return
	}
	b.events = append(b.events, Event{At: now, Kind: EvFault, Wave: w.idx, PID: pid, N: pages})
	b.mu.Unlock()
}

// ChildExit implements core.AltProbe.
func (w *Wave) ChildExit(pid ids.PID, outcome string, now time.Time, copies int64) {
	if w == nil {
		return
	}
	kind := EvGuardFail
	switch outcome {
	case core.OutcomeWin:
		kind = EvWin
	case core.OutcomeTooLate, core.OutcomeCancelled, core.OutcomeUnstarted:
		kind = EvTooLate
	}
	b := w.locked()
	if b == nil {
		return
	}
	if kind == EvWin && b.waves[w.idx].winAt.IsZero() {
		b.waves[w.idx].winAt = now
	}
	b.events = append(b.events, Event{At: now, Kind: kind, Wave: w.idx, PID: pid, Name: outcome, N: copies})
	b.mu.Unlock()
}

// Committed implements core.AltProbe: the winner's pages were adopted.
func (w *Wave) Committed(winner ids.PID, now time.Time) {
	if w == nil {
		return
	}
	b := w.locked()
	if b == nil {
		return
	}
	b.events = append(b.events, Event{At: now, Kind: EvCommit, Wave: w.idx, PID: winner})
	b.mu.Unlock()
}

// End closes the wave with RunAlt's verdict. Nil-safe.
func (w *Wave) End(err error) {
	if w == nil {
		return
	}
	now := time.Now()
	b := w.locked()
	if b == nil {
		return
	}
	b.waves[w.idx].end = now
	if err != nil {
		b.waves[w.idx].err = err.Error()
	}
	b.events = append(b.events, Event{At: now, Kind: EvWaveEnd, Wave: w.idx})
	b.mu.Unlock()
}

// Outcome is what the caller knows when the block finishes.
type Outcome struct {
	// Status is the terminal job status ("done", "failed", ...).
	Status string
	// Winner is the committed alternative's name, if any.
	Winner string
	// Decision is how the scheduler chose to run the block
	// ("static", "sequential", "speculate", "explore"); empty when the
	// caller has no adaptive controller.
	Decision string
	// PredictedMean / PredictedBest are the EWMA τ(C_mean) and
	// τ(C_best) estimates from history, read before the block ran
	// (zero when the alternatives have no history yet).
	PredictedMean time.Duration
	PredictedBest time.Duration
	// PredictedOverhead is the history's per-block overhead estimate —
	// the τ(overhead) term folded into the predicted PI denominator
	// (zero before any block of the kind was summarized).
	PredictedOverhead time.Duration
}

// Timeline is one finished block's immutable record.
type Timeline struct {
	ID      uint64 `json:"id"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	TraceID string `json:"trace_id,omitempty"`
	Status  string `json:"status"`
	Winner  string `json:"winner,omitempty"`

	// Decision is the scheduler's verdict for this block ("static",
	// "sequential", "speculate", "explore"); empty without a controller.
	Decision string `json:"decision,omitempty"`

	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`

	// The §4.3 decomposition: Setup+Runtime+Selection+Sched == Wall by
	// construction (Sched is the residual outside any wave — queue and
	// budget waits, root init).
	Setup     time.Duration `json:"setup_ns"`
	Runtime   time.Duration `json:"runtime_ns"`
	Selection time.Duration `json:"selection_ns"`
	Sched     time.Duration `json:"sched_ns"`

	// WinnerTau is the winning child's spawn→win latency — the measured
	// τ(C_best) including its share of runtime overhead.
	WinnerTau time.Duration `json:"winner_tau_ns"`

	PredictedMean     time.Duration `json:"predicted_mean_ns,omitempty"`
	PredictedBest     time.Duration `json:"predicted_best_ns,omitempty"`
	PredictedOverhead time.Duration `json:"predicted_overhead_ns,omitempty"`
	// PIMeasured = PredictedMean / Wall: the paper's PI with the
	// denominator τ(C_best)+τ(overhead) measured as the block's actual
	// wall time. PIPredicted = PredictedMean / (PredictedBest +
	// PredictedOverhead): the paper's PI formula with every term
	// estimated from history, directly comparable to PIMeasured.
	// PIPredictedRaw = PredictedMean / PredictedBest is the old
	// overhead-blind upper bound, kept so the calibration gain of
	// folding overhead in stays measurable. All 0 without history.
	PIMeasured     float64 `json:"pi_measured,omitempty"`
	PIPredicted    float64 `json:"pi_predicted,omitempty"`
	PIPredictedRaw float64 `json:"pi_predicted_raw,omitempty"`

	Waves      int   `json:"waves"`
	Spawns     int   `json:"spawns"`
	Faults     int   `json:"faults"`
	FaultPages int64 `json:"fault_pages"`
	GuardFails int   `json:"guard_fails"`
	TooLate    int   `json:"too_late"`

	Events []Event `json:"events,omitempty"`
}

// Finish closes the block, reduces its events to a Timeline, folds it
// into the recorder's aggregates, and recycles the buffers. Nil-safe.
// The block must not be used afterwards.
func (b *Block) Finish(out Outcome) *Timeline {
	if b == nil {
		return nil
	}
	end := time.Now()
	b.mu.Lock()
	t := &Timeline{
		ID:                b.id,
		Kind:              b.kind,
		Name:              b.name,
		TraceID:           b.traceID,
		Status:            out.Status,
		Winner:            out.Winner,
		Decision:          out.Decision,
		Start:             b.start,
		Wall:              end.Sub(b.start),
		PredictedMean:     out.PredictedMean,
		PredictedBest:     out.PredictedBest,
		PredictedOverhead: out.PredictedOverhead,
		Waves:             len(b.waves),
		Events:            append([]Event(nil), b.events...),
	}
	waves := append([]waveSpan(nil), b.waves...)
	b.gen++ // outstanding Waves (straggling siblings) are now stale
	b.mu.Unlock()

	var spawnAt map[ids.PID]time.Time
	for _, e := range t.Events {
		switch e.Kind {
		case EvSpawn:
			t.Spawns++
			if spawnAt == nil {
				spawnAt = make(map[ids.PID]time.Time, 8)
			}
			spawnAt[e.PID] = e.At
		case EvFault:
			t.Faults++
			t.FaultPages += e.N
		case EvGuardFail:
			t.GuardFails++
		case EvTooLate:
			t.TooLate++
		case EvWin:
			if at, ok := spawnAt[e.PID]; ok && t.WinnerTau == 0 {
				t.WinnerTau = e.At.Sub(at)
			}
		}
	}

	// Phase decomposition from the wave stamps. A wave that never
	// reached SetupDone (spawn error, all guards pre-closed) counts
	// entirely as setup; a wave without a winner has no selection phase.
	inWaves := time.Duration(0)
	for _, ws := range waves {
		if ws.end.IsZero() {
			ws.end = end // block finished mid-wave (cancellation)
		}
		span := ws.end.Sub(ws.start)
		inWaves += span
		switch {
		case ws.setupDone.IsZero():
			t.Setup += span
		case ws.winAt.IsZero():
			t.Setup += ws.setupDone.Sub(ws.start)
			t.Runtime += ws.end.Sub(ws.setupDone)
		default:
			t.Setup += ws.setupDone.Sub(ws.start)
			t.Runtime += ws.winAt.Sub(ws.setupDone)
			t.Selection += ws.end.Sub(ws.winAt)
		}
	}
	t.Sched = t.Wall - inWaves
	if t.Sched < 0 {
		t.Sched = 0
	}

	if out.PredictedMean > 0 {
		if t.Wall > 0 {
			t.PIMeasured = float64(out.PredictedMean) / float64(t.Wall)
		}
		if out.PredictedBest > 0 {
			t.PIPredictedRaw = float64(out.PredictedMean) / float64(out.PredictedBest)
			// The paper's denominator is τ(C_best) + τ(overhead): fold
			// the history's overhead estimate in so the prediction is
			// comparable to the measured PI instead of an upper bound.
			t.PIPredicted = float64(out.PredictedMean) /
				float64(out.PredictedBest+out.PredictedOverhead)
		}
	}

	b.rec.retire(t, b)
	return t
}
