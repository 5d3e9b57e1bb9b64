// Package serve is the admission-controlled service layer: a
// long-running pool that executes alternative-block jobs — recovery
// blocks, Prolog queries, raw core.Alt sets — under sustained load.
//
// The paper's τ(overhead) term is dominated by CPU sharing among
// speculative siblings (§4.2): beyond a small degree of speculation,
// extra alternatives slow the winner down, and under load they slow
// *everyone* down. The pool therefore throttles speculation three ways:
//
//   - a global speculation budget (Budget): a token pool bounding the
//     number of live speculative worlds machine-wide — one token per
//     spawned alternative, acquired before the block spawns and
//     released after its siblings are eliminated;
//   - per-job degree-of-speculation caps: a job never races more than
//     MaxDegree alternatives at once, however many it declares;
//   - priority admission with lazy spawn: alternatives are ordered by
//     historically-observed winner latency (History) and admitted in
//     waves — the historically-fastest first, the rest spawned lazily
//     only if the admitted wave fails. When the first wave commits,
//     the remaining alternatives are never spawned at all, which is
//     exactly the overhead §4.2 says speculation should avoid.
//
// On top of the static throttles sits the adaptive speculation
// controller (Controller, policy.go), which closes the paper's PI
// feedback loop per job kind: it predicts the PI of speculating from
// the probe-fed History (per-alternative τ and failure-rate EWMAs, the
// kind's realized winner τ, the flight recorder's overhead summaries)
// and, when sequential fall-through is predicted faster, runs the
// block one alternative per wave instead of racing; otherwise it
// bounds the wave width by marginal gain and orders spawns with a UCB
// bandit. It never changes the token budget, which stays what
// Config.SpecTokens says. Enable with Config.Adapt.
//
// Per-job deadlines and client cancellation are wired directly into
// sibling elimination: cancelling a job cancels its root world, which
// aborts the in-flight block and frees the whole speculative subtree
// (core.World.Cancel → abandoned-block teardown), so an abandoned
// request leaves zero live worlds behind.
//
//	pool, _ := serve.NewPool(serve.Config{Workers: 16, SpecTokens: 32})
//	t, _ := pool.Submit(serve.Job{Name: "q1", Alts: alts, Extract: read})
//	res, _ := t.Wait(ctx)
//
// cmd/altserved wraps the pool in an HTTP daemon; the benchmark of
// record's race_cpu workload (bench/) drives it closed-loop and records
// latency/throughput.
package serve

import "errors"

// Errors returned by the pool's admission and job paths.
var (
	// ErrQueueFull means admission control refused the job: the pool's
	// queue is at capacity. Callers should shed load or retry later.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the pool no longer accepts jobs.
	ErrDraining = errors.New("serve: pool draining")
	// ErrCancelled means the job was abandoned by the caller.
	ErrCancelled = errors.New("serve: job cancelled")
	// ErrDeadline means the job's deadline expired before any
	// alternative committed.
	ErrDeadline = errors.New("serve: job deadline exceeded")
	// ErrUnknownJob means the job ID is not (or no longer) known.
	ErrUnknownJob = errors.New("serve: unknown job")
)
