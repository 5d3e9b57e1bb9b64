package serve

import (
	"container/list"
	"math"
	"sort"
	"sync"
	"time"
)

// History records, per job kind and alternative name, the statistics the
// serve layer's scheduling decisions run on:
//
//   - a per-alternative EWMA of observed child latency τ (winners and
//     too-late finishers both count — a loser that completed still
//     measured its alternative's cost);
//   - per-alternative play/win/failure counts (alternatives that ran,
//     commits, and observed guard failures) for bandit-style ranking and
//     the controller's fall-through model;
//   - a per-kind EWMA of the committed child's τ — the realized
//     τ(C_best) the paper's PI denominator wants;
//   - a per-kind EWMA of the obs-measured per-block overhead
//     (setup+selection+sched), fed by the flight recorder's summary
//     hook, plus a global fallback for kinds not yet sampled.
//
// Priority admission uses it to order a block's alternatives
// fastest-first (§4.2: the cheapest way to cut speculation overhead is
// to not spawn the alternatives that historically lose); the adaptive
// controller (policy.go) additionally reads win rates and failure rates
// to decide whether to speculate at all and how wide.
//
// The maps are bounded: at most maxKinds kinds are retained (LRU —
// touching a kind refreshes it) and at most maxAlts alternatives per
// kind (least-recently-touched evicted). Evictions are counted so a
// cardinality explosion is visible on /metrics instead of being an
// invisible memory leak.
type History struct {
	mu       sync.Mutex
	kinds    map[string]*kindHist
	lru      *list.List // *kindHist, front = most recently used
	maxKinds int
	maxAlts  int
	evicted  int64

	// Global overhead EWMA: fallback for kinds the sampler has not yet
	// summarized.
	globalOverhead float64
	hasGlobalOvh   bool
}

// altStat is one (kind, alt)'s learned state.
type altStat struct {
	tau     float64 // EWMA child latency in ns (wins + too-late completions)
	hasTau  bool
	plays   int64  // times run in a wave (a child eliminated unstarted is no play)
	wins    int64  // times committed
	fails   int64  // observed guard/body failures
	touched uint64 // kind-local use stamp for alt eviction
}

// kindHist is one kind's learned state.
type kindHist struct {
	name string
	elem *list.Element
	alts map[string]*altStat

	winnerTau    float64 // EWMA of the committed child's τ in ns
	hasWinnerTau bool
	overhead     float64 // EWMA of obs-measured block overhead in ns
	hasOverhead  bool

	wins  int64  // committed blocks of this kind
	clock uint64 // alt touch stamp source

	// Controller decision counters (policy.go): how this kind has been
	// scheduled, and the decision count that drives explore ticks.
	decisions  uint64
	seqDec     int64
	specDec    int64
	exploreDec int64

	// seqStreak counts consecutive sequential-favoring predictions; the
	// controller only abandons speculation once the signal persists, so
	// a single EWMA noise dip cannot flap the policy.
	seqStreak int64
}

// historyAlpha is the EWMA smoothing factor: new observations move the
// estimate by 20%, so a regressed alternative loses its priority within
// a few wins.
const historyAlpha = 0.2

// Default caps for the (kind, alt) statistics maps.
const (
	DefaultMaxKinds = 512
	DefaultMaxAlts  = 64
)

// NewHistory returns an empty history with the default caps.
func NewHistory() *History { return NewHistoryWithCap(DefaultMaxKinds, DefaultMaxAlts) }

// NewHistoryWithCap returns an empty history retaining at most maxKinds
// kinds and maxAlts alternatives per kind (minimum 1 each).
func NewHistoryWithCap(maxKinds, maxAlts int) *History {
	if maxKinds < 1 {
		maxKinds = 1
	}
	if maxAlts < 1 {
		maxAlts = 1
	}
	return &History{
		kinds:    make(map[string]*kindHist),
		lru:      list.New(),
		maxKinds: maxKinds,
		maxAlts:  maxAlts,
	}
}

// kind returns kind's stats, creating (and LRU-evicting) as needed.
// Callers hold h.mu.
func (h *History) kind(name string, create bool) *kindHist {
	if k, ok := h.kinds[name]; ok {
		h.lru.MoveToFront(k.elem)
		return k
	}
	if !create {
		return nil
	}
	k := &kindHist{name: name, alts: make(map[string]*altStat, 4)}
	k.elem = h.lru.PushFront(k)
	h.kinds[name] = k
	for len(h.kinds) > h.maxKinds {
		oldest := h.lru.Back()
		victim := oldest.Value.(*kindHist)
		h.lru.Remove(oldest)
		delete(h.kinds, victim.name)
		h.evicted++
	}
	return k
}

// alt returns (kind, name)'s stats, creating (and evicting the
// least-recently-touched alternative) as needed. Callers hold h.mu.
func (h *History) alt(k *kindHist, name string, create bool) *altStat {
	if a, ok := k.alts[name]; ok {
		k.clock++
		a.touched = k.clock
		return a
	}
	if !create {
		return nil
	}
	for len(k.alts) >= h.maxAlts {
		var victimName string
		var victim *altStat
		for n, a := range k.alts {
			if victim == nil || a.touched < victim.touched {
				victimName, victim = n, a
			}
		}
		delete(k.alts, victimName)
		h.evicted++
	}
	k.clock++
	a := &altStat{touched: k.clock}
	k.alts[name] = a
	return a
}

// Record folds one observed winner latency into the (kind, alt) stats:
// the alternative's τ EWMA, its win count, and the kind's realized
// winner-τ EWMA.
func (h *History) Record(kind, alt string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, true)
	a := h.alt(k, alt, true)
	a.tau = ewma(a.tau, a.hasTau, float64(d))
	a.hasTau = true
	a.wins++
	k.wins++
	k.winnerTau = ewma(k.winnerTau, k.hasWinnerTau, float64(d))
	k.hasWinnerTau = true
}

// RecordPlay counts one play: the alternative ran in a wave. A child
// eliminated before its body started is not one.
func (h *History) RecordPlay(kind, alt string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.alt(h.kind(kind, true), alt, true).plays++
}

// RecordTooLate folds a loser's completed latency into its τ EWMA: the
// alternative lost the race but still measured its cost.
func (h *History) RecordTooLate(kind, alt string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a := h.alt(h.kind(kind, true), alt, true)
	a.tau = ewma(a.tau, a.hasTau, float64(d))
	a.hasTau = true
}

// RecordFail counts one observed guard/body failure for (kind, alt).
func (h *History) RecordFail(kind, alt string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.alt(h.kind(kind, true), alt, true).fails++
}

// RecordOverhead folds one obs-measured per-block overhead
// (setup+selection+sched) into the kind's EWMA and the global fallback.
func (h *History) RecordOverhead(kind string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, true)
	k.overhead = ewma(k.overhead, k.hasOverhead, float64(d))
	k.hasOverhead = true
	h.globalOverhead = ewma(h.globalOverhead, h.hasGlobalOvh, float64(d))
	h.hasGlobalOvh = true
}

// Overhead returns the kind's smoothed per-block overhead, falling back
// to the global EWMA when the kind has not been sampled yet.
func (h *History) Overhead(kind string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k := h.kind(kind, false); k != nil && k.hasOverhead {
		return time.Duration(k.overhead), true
	}
	if h.hasGlobalOvh {
		return time.Duration(h.globalOverhead), true
	}
	return 0, false
}

// Evictions returns how many kinds and alternatives the caps evicted.
func (h *History) Evictions() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evicted
}

// Kinds returns the number of kinds currently retained.
func (h *History) Kinds() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.kinds)
}

// Estimate returns the smoothed child latency for (kind, alt) and
// whether one has been observed.
func (h *History) Estimate(kind, alt string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, false)
	if k == nil {
		return 0, false
	}
	if a := h.alt(k, alt, false); a != nil && a.hasTau {
		return time.Duration(a.tau), true
	}
	return 0, false
}

// Predict returns the EWMA estimates the paper's PI is computed from:
// mean is τ(C_mean), the average smoothed latency across the named
// alternatives that have history; best is the realized τ(C_best) — the
// kind's winner-τ EWMA when one exists, the minimum alternative EWMA
// otherwise; overhead is the obs-fed per-block overhead estimate (zero
// until the flight recorder has summarized a block of this kind or any
// kind). ok is false (all durations zero) when no named alternative has
// history.
func (h *History) Predict(kind string, names []string) (mean, best, overhead time.Duration, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, false)
	if k == nil {
		if h.hasGlobalOvh {
			overhead = time.Duration(h.globalOverhead)
		}
		return 0, 0, overhead, false
	}
	var sum, minV float64
	n := 0
	for _, name := range names {
		a := k.alts[name]
		if a == nil || !a.hasTau {
			continue
		}
		sum += a.tau
		if n == 0 || a.tau < minV {
			minV = a.tau
		}
		n++
	}
	if k.hasOverhead {
		overhead = time.Duration(k.overhead)
	} else if h.hasGlobalOvh {
		overhead = time.Duration(h.globalOverhead)
	}
	if n == 0 {
		return 0, 0, overhead, false
	}
	best = time.Duration(minV)
	if k.hasWinnerTau {
		best = time.Duration(k.winnerTau)
	}
	return time.Duration(sum / float64(n)), best, overhead, true
}

// Order returns a permutation of indices into names, historically
// fastest first; alternatives never observed keep their declaration
// order after the observed ones. The sort is stable so equal estimates
// also preserve declaration order. This is the pure-exploitation
// ordering the static pool uses; the adaptive controller orders
// speculative waves with OrderUCB instead.
//
// The order is the order in which the alternatives run: a wave is
// admitted in it, and core.RunAlt starts a block's first alternative
// first, so with one free core the historically fastest alternative is
// the one running. Never-observed alternatives stay last even though
// they might be faster: putting them first would let a width-1 wave run
// an alternative that never ends ahead of a known finisher.
func (h *History) Order(kind string, names []string) []int {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	h.mu.Lock()
	k := h.kind(kind, false)
	if k == nil {
		h.mu.Unlock()
		return idx
	}
	est := make([]float64, len(names))
	known := make([]bool, len(names))
	for i, n := range names {
		if a := k.alts[n]; a != nil && a.hasTau {
			est[i], known[i] = a.tau, true
		}
	}
	h.mu.Unlock()
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		switch {
		case known[ia] && known[ib]:
			return est[ia] < est[ib]
		case known[ia]:
			return true
		default:
			return false
		}
	})
	return idx
}

// altView is one alternative's statistics snapshot, used by the
// controller's decision model.
type altView struct {
	tau      float64 // estimated child latency (ns; fallback-filled)
	hasTau   bool
	plays    int64
	wins     int64
	winRate  float64 // Laplace-smoothed wins/plays
	failRate float64 // Laplace-smoothed fails/plays
	winShare float64 // wins / kind wins (0 when the kind has none)
	score    float64 // UCB score: lower = schedule earlier
}

// OrderUCB returns a permutation of indices into names ranked by a UCB
// score over historical win rate and latency — the bandit ordering
// speculative waves spawn in — plus each alternative's statistics view
// aligned with names. c is the exploration constant: 0 is pure
// exploitation; larger values pull rarely-played alternatives forward.
//
// The score is (τ / winRate) shrunk by an optimism factor
// 1 + c·sqrt(ln(totalPlays)/plays): an alternative that wins often and
// fast scores low (runs first), and one that has barely been tried gets
// the benefit of the doubt. Ties — in particular a cold kind where every
// score is the same fallback — preserve declaration order (stable sort),
// so cold-start ordering is deterministic.
func (h *History) OrderUCB(kind string, names []string, c float64) ([]int, []altView) {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	views := make([]altView, len(names))

	h.mu.Lock()
	k := h.kind(kind, false)
	var totalPlays, kindWins int64
	if k != nil {
		kindWins = k.wins
		for i, n := range names {
			if a := k.alts[n]; a != nil {
				views[i] = altView{tau: a.tau, hasTau: a.hasTau, plays: a.plays, wins: a.wins}
				totalPlays += a.plays
				views[i].failRate = (float64(a.fails) + 0.5) / (float64(a.plays) + 1)
			} else {
				views[i].failRate = 0.5
			}
		}
	} else {
		for i := range views {
			views[i].failRate = 0.5
		}
	}
	h.mu.Unlock()

	// Fallback τ for never-observed alternatives: the mean of the known
	// estimates, or a 1ms nominal when nothing is known.
	var sum float64
	n := 0
	for i := range views {
		if views[i].hasTau {
			sum += views[i].tau
			n++
		}
	}
	fallback := float64(time.Millisecond)
	if n > 0 {
		fallback = sum / float64(n)
	}
	for i := range views {
		v := &views[i]
		if !v.hasTau {
			v.tau = fallback
		}
		v.winRate = (float64(v.wins) + 1) / (float64(v.plays) + 2)
		if kindWins > 0 {
			v.winShare = float64(v.wins) / float64(kindWins)
		}
		optimism := 1 + c*math.Sqrt(math.Log(float64(totalPlays)+2)/float64(v.plays+1))
		v.score = v.tau / v.winRate / optimism
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return views[idx[a]].score < views[idx[b]].score
	})
	return idx, views
}

// KindSnapshot is one kind's aggregate view for introspection
// (adaptbench assertions, /metrics debugging).
type KindSnapshot struct {
	Wins             int64 `json:"wins"`
	Alts             int   `json:"alts"`
	SeqDecisions     int64 `json:"seq_decisions"`
	SpecDecisions    int64 `json:"spec_decisions"`
	ExploreDecisions int64 `json:"explore_decisions"`
}

// Kind returns the named kind's aggregate snapshot (zero when unknown).
func (h *History) Kind(kind string) KindSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, false)
	if k == nil {
		return KindSnapshot{}
	}
	return KindSnapshot{
		Wins:             k.wins,
		Alts:             len(k.alts),
		SeqDecisions:     k.seqDec,
		SpecDecisions:    k.specDec,
		ExploreDecisions: k.exploreDec,
	}
}

// noteDecision records one controller decision against the kind and
// returns the kind's decision ordinal (1-based) so the controller can
// schedule periodic explore ticks deterministically per kind.
func (h *History) noteDecision(kind string, d decisionKind) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, true)
	k.decisions++
	switch d {
	case decideSequential:
		k.seqDec++
	case decideSpeculate:
		k.specDec++
	case decideExplore:
		k.exploreDec++
	}
	return k.decisions
}

// noteSeqSignal folds one sequential-favoring (or not) prediction into
// the kind's streak and returns the consecutive count; a speculate
// signal resets it.
func (h *History) noteSeqSignal(kind string, seq bool) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := h.kind(kind, true)
	if seq {
		k.seqStreak++
	} else {
		k.seqStreak = 0
	}
	return k.seqStreak
}

// decisionOrdinal peeks the kind's next decision ordinal without
// recording anything. Callers hold nothing; used to plan explore ticks.
func (h *History) decisionOrdinal(kind string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k := h.kind(kind, false); k != nil {
		return k.decisions + 1
	}
	return 1
}

// wins returns the kind's committed-block count.
func (h *History) winsOf(kind string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k := h.kind(kind, false); k != nil {
		return k.wins
	}
	return 0
}

// ewma folds x into a smoothed estimate.
func ewma(prev float64, has bool, x float64) float64 {
	if !has {
		return x
	}
	return (1-historyAlpha)*prev + historyAlpha*x
}
