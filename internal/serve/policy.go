// Adaptive speculation controller: the paper's PI model turned into a
// live, per-job scheduler.
//
// The paper's performance case is PI = τ(C_mean) / (τ(C_best) +
// τ(overhead)): speculation only pays when racing the alternatives
// beats running one and falling through. The static pool speculates at
// a fixed degree for every job; this controller closes the feedback
// loop using what the serve layer already measures — the History EWMAs
// (per-alternative τ, win and failure rates, the kind's realized
// winner-τ) and the flight recorder's live overhead decomposition — to
// decide, per job:
//
//  1. whether to speculate at all. The controller estimates the
//     expected latency of the sequential-alternatives baseline (run the
//     ranked-first alternative, fall through on failure, paying one
//     block overhead per extra wave) against the expected latency of
//     the speculative block (realized winner-τ plus overhead). Their
//     ratio is a generalized predicted PI; below the threshold the job
//     runs one alternative per wave, which is exactly the paper's
//     sequential baseline with fall-through;
//  2. the speculation degree N: alternatives join the wave while their
//     marginal predicted latency gain — fall-through probability mass
//     times their cost, plus an uncertain-winner term weighted by
//     historical win share — exceeds the marginal overhead another
//     speculative world costs;
//  3. the spawn order: a UCB bandit over win rate and winner latency
//     (History.OrderUCB), so a regressed favourite loses its slot and a
//     rarely-tried alternative occasionally gets one.
//
// Every adaptExploreEvery-th decision per kind is an explore tick: the
// job speculates at full degree whatever the PI says, refreshing the
// statistics a sequential steady state would otherwise starve.
//
// The policy is fixed: Config.Adapt switches it on, and its parameters
// are the constants below, not options. The token budget is not the
// controller's to change; it is what Config.SpecTokens says.
package serve

import (
	"sync/atomic"
	"time"
)

// The controller's fixed parameters.
const (
	// adaptPIThreshold is the predicted-PI floor for speculating: a
	// kind runs sequentially only when racing is predicted to lose.
	adaptPIThreshold = 1.0
	// adaptUCB is the bandit's exploration constant c.
	adaptUCB = 0.5
	// adaptMinKindWins is how many committed blocks a kind needs before
	// the controller trusts its statistics enough to force sequential
	// execution; cold kinds always speculate.
	adaptMinKindWins = 5
	// adaptWinShareFloor is the historical win share at which an
	// alternative counts as a genuine contender in the degree rule.
	adaptWinShareFloor = 0.1
	// adaptOverheadPrior seeds the per-block overhead estimate until the
	// flight recorder has summarized real blocks.
	adaptOverheadPrior = 150 * time.Microsecond
	// adaptExploreEvery forces every Nth decision per kind to speculate
	// at full degree.
	adaptExploreEvery = 64
)

// decisionKind labels what the controller chose for a job.
type decisionKind uint8

const (
	decideStatic decisionKind = iota // controller disabled
	decideSequential
	decideSpeculate
	decideExplore
)

var decisionNames = [...]string{
	decideStatic:     "static",
	decideSequential: "sequential",
	decideSpeculate:  "speculate",
	decideExplore:    "explore",
}

func (d decisionKind) String() string { return decisionNames[d] }

// Decision is the controller's verdict for one job.
type Decision struct {
	Kind decisionKind
	// Degree is the wave width: 1 for sequential fall-through, up to
	// the job's cap otherwise.
	Degree int
	// Order is the spawn order (indices into the job's alternatives):
	// UCB-ranked for speculative waves, pure-EWMA for sequential.
	Order []int
	// PredPI is the generalized predicted PI: expected sequential
	// latency over expected speculative latency (0 without history).
	PredPI float64
	// PredMean, PredBest, PredOverhead are the τ(C_mean), τ(C_best) and
	// τ(overhead) estimates behind it, for the flight recorder.
	PredMean, PredBest, PredOverhead time.Duration
}

// Controller is the adaptive speculation policy engine. A pool builds
// one only when Config.Adapt is set; a nil *Controller is the static
// policy.
type Controller struct {
	hist *History

	// exploreEvery is adaptExploreEvery; tests shorten it.
	exploreEvery uint64

	seqDecisions     atomic.Int64
	specDecisions    atomic.Int64
	exploreDecisions atomic.Int64
	degreeSum        atomic.Int64
	decisions        atomic.Int64
}

// newController builds a controller over the pool's history.
func newController(hist *History) *Controller {
	return &Controller{hist: hist, exploreEvery: adaptExploreEvery}
}

// Enabled reports whether the controller is making decisions: whether
// it exists.
func (c *Controller) Enabled() bool { return c != nil }

// Decide picks the execution plan for one job: whether to speculate,
// how wide, and in what order. maxDegree is the job's effective degree
// cap (≥1).
func (c *Controller) Decide(kind string, names []string, maxDegree int) Decision {
	if maxDegree < 1 {
		maxDegree = 1
	}
	ovh := float64(adaptOverheadPrior)
	mean, best, measuredOvh, ok := c.hist.Predict(kind, names)
	if measuredOvh > 0 {
		ovh = float64(measuredOvh)
	}
	d := Decision{
		PredMean:     mean,
		PredBest:     best,
		PredOverhead: time.Duration(ovh),
	}

	// Explore tick: every Nth decision per kind speculates at full
	// degree whatever the statistics say, so a sequential steady state
	// keeps refreshing the data it is built on.
	explore := c.hist.decisionOrdinal(kind)%c.exploreEvery == 0

	if !ok || c.hist.winsOf(kind) < adaptMinKindWins || explore {
		// Cold start (or explore): not enough history to justify
		// suppressing speculation — run wide and learn.
		order, _ := c.hist.OrderUCB(kind, names, adaptUCB)
		d.Order = order
		d.Degree = maxDegree
		d.Kind = decideSpeculate
		if explore {
			d.Kind = decideExplore
		}
		c.note(kind, d.Kind, d.Degree)
		return d
	}

	order, views := c.hist.OrderUCB(kind, names, adaptUCB)

	// Expected latency of the sequential-alternatives baseline: run the
	// ranked-first alternative; on failure fall through to the next,
	// paying one block overhead per extra wave.
	seq := views[order[0]].tau
	failMass := views[order[0]].failRate
	for k := 1; k < len(order); k++ {
		seq += failMass * (views[order[k]].tau + ovh)
		failMass *= views[order[k]].failRate
	}
	// Expected latency of the speculative block: the realized winner τ
	// plus the measured per-block overhead.
	spec := float64(best) + ovh
	if spec > 0 {
		d.PredPI = seq / spec
	}

	// Abandoning speculation is the riskier move (it commits the job to
	// the prediction), so it takes a deliberate signal: the predicted
	// saving must be worth at least half a block overhead — the scale
	// the two estimates actually differ by — and must persist across
	// consecutive decisions, so one EWMA noise dip cannot flap a
	// healthy speculative kind into sequential fall-through.
	wantSeq := d.PredPI < adaptPIThreshold && spec-seq > 0.5*ovh
	if c.hist.noteSeqSignal(kind, wantSeq) >= 2 {
		// Speculation predicted not to pay: the paper's sequential
		// baseline. Order by pure exploitation — with one alternative
		// per wave there is no race to hide exploration in.
		d.Order = c.hist.Order(kind, names)
		d.Degree = 1
		d.Kind = decideSequential
		c.note(kind, d.Kind, 1)
		return d
	}

	// Degree: admit ranked alternatives while the marginal predicted
	// gain (fall-through mass it absorbs, plus its claim on genuinely
	// uncertain wins) exceeds the marginal overhead of another
	// speculative world.
	degree := 1
	failMass = views[order[0]].failRate
	tauBest := views[order[0]].tau
	for k := 1; k < len(order) && degree < maxDegree; k++ {
		v := views[order[k]]
		gain := failMass * (v.tau + ovh)
		if v.winShare >= adaptWinShareFloor {
			gain += v.winShare * tauBest
		}
		if gain <= ovh {
			break
		}
		degree++
		failMass *= v.failRate
	}
	d.Order = order
	d.Degree = degree
	d.Kind = decideSpeculate
	c.note(kind, d.Kind, degree)
	return d
}

// note records a decision in the global and per-kind counters.
func (c *Controller) note(kind string, d decisionKind, degree int) {
	c.decisions.Add(1)
	c.degreeSum.Add(int64(degree))
	switch d {
	case decideSequential:
		c.seqDecisions.Add(1)
	case decideSpeculate:
		c.specDecisions.Add(1)
	case decideExplore:
		c.exploreDecisions.Add(1)
	}
	c.hist.noteDecision(kind, d)
}

// PolicyStats is the controller's aggregate view for /metrics.
type PolicyStats struct {
	Enabled          bool    `json:"enabled"`
	Decisions        int64   `json:"decisions"`
	SeqDecisions     int64   `json:"seq_decisions"`
	SpecDecisions    int64   `json:"spec_decisions"`
	ExploreDecisions int64   `json:"explore_decisions"`
	MeanDegree       float64 `json:"mean_degree"`
	HistoryKinds     int     `json:"history_kinds"`
	HistoryEvictions int64   `json:"history_evictions"`
	OverheadEWMAUS   float64 `json:"overhead_ewma_us"`
}

// Stats snapshots the controller's counters. Nil-safe: a nil
// controller returns a zero (disabled) view.
func (c *Controller) Stats() PolicyStats {
	if c == nil {
		return PolicyStats{}
	}
	s := PolicyStats{
		Enabled:          true,
		Decisions:        c.decisions.Load(),
		SeqDecisions:     c.seqDecisions.Load(),
		SpecDecisions:    c.specDecisions.Load(),
		ExploreDecisions: c.exploreDecisions.Load(),
		HistoryKinds:     c.hist.Kinds(),
		HistoryEvictions: c.hist.Evictions(),
	}
	if s.Decisions > 0 {
		s.MeanDegree = float64(c.degreeSum.Load()) / float64(s.Decisions)
	}
	if ovh, ok := c.hist.Overhead(""); ok {
		s.OverheadEWMAUS = float64(ovh) / float64(time.Microsecond)
	}
	return s
}
