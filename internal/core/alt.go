package core

import (
	"fmt"
	"runtime"
	"time"

	"altrun/internal/arbiter"
	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/proc"
	"altrun/internal/trace"
)

// Alt is one alternative of a block: ENSURE Guard WITH Body (Figure 1).
// Guard is optional; when nil, the Body's error return is the guard
// (nil = satisfied). The paper's recovery blocks run the guard *after*
// the body (acceptance test); both compose here because "the
// computation can be viewed as part of the guard" (§5.1.1).
type Alt struct {
	// Name labels the alternative in traces and results.
	Name string
	// Body computes the alternative's state change against its private
	// world. A non-nil error means the alternative failed.
	Body func(w *World) error
	// Guard, if non-nil, is evaluated in the child after Body; false
	// or an error means the alternative failed (§3.2: "we currently
	// expect the child process to execute it, thus speeding up
	// spawning and synchronization").
	Guard func(w *World) (bool, error)
}

// ClaimFunc grants the right to commit at most once per block. The
// default is an in-process 0-1 semaphore; distributed blocks install a
// majority-consensus claim (§3.2.1).
type ClaimFunc func(w *World) bool

// Child outcomes reported to an AltProbe.
const (
	// OutcomeWin: the child's guard passed and it claimed the commit.
	OutcomeWin = "win"
	// OutcomeGuardFail: the child's body or guard failed.
	OutcomeGuardFail = "guard-fail"
	// OutcomeTooLate: the guard passed but a sibling committed first.
	OutcomeTooLate = "too-late"
	// OutcomeCancelled: the child's body failed after its world had
	// already been cancelled — an elimination casualty, not a genuine
	// guard failure.
	OutcomeCancelled = "cancelled"
	// OutcomeUnstarted: the child was eliminated before its body was
	// entered, so it executed nothing — a process the kernel kills
	// before scheduling it.
	OutcomeUnstarted = "unstarted"
)

// AltProbe observes one RunAlt execution from the inside — the flight
// recorder (internal/obs) implements it to reconstruct a block's
// causal span tree. Callbacks fire from both the parent's and the
// children's goroutines concurrently, so implementations must be safe
// for concurrent use and cheap; now is the runtime's clock (virtual in
// simulated mode). A nil Options.Probe costs one pointer test per hook
// site, keeping unsampled blocks free of observation overhead.
type AltProbe interface {
	// ChildSpawned fires for each alternative once its world is built
	// and registered (setup phase).
	ChildSpawned(pid ids.PID, name string, now time.Time)
	// SetupDone fires once every child body has been started — the end
	// of the paper's §4.3 setup phase.
	SetupDone(now time.Time, spawned int)
	// ChildFault fires when a child's write COW-copies pages (§4.3
	// runtime overhead). pages is the copies this write performed.
	ChildFault(pid ids.PID, pages int64, now time.Time)
	// ChildExit fires when a child resolves; outcome is one of
	// OutcomeWin, OutcomeGuardFail, OutcomeTooLate, OutcomeCancelled,
	// OutcomeUnstarted and copies its total COW page copies.
	ChildExit(pid ids.PID, outcome string, now time.Time, copies int64)
	// Committed fires after the winner's page map was adopted into the
	// parent (selection phase).
	Committed(winner ids.PID, now time.Time)
}

// Options tune an alternative block.
type Options struct {
	// Timeout is alt_wait's TIMEOUT: "if TIMEOUT time units have
	// elapsed, it is highly probable that none of the alternatives
	// have succeeded" (§3.2). <= 0 waits forever.
	Timeout time.Duration
	// FullCopy physically copies the parent's state into each child
	// instead of COW sharing — the recovery-block mode that avoids
	// adding failure modes (§5.1.2).
	FullCopy bool
	// SyncElimination deletes losing siblings before RunAlt returns;
	// the default is asynchronous elimination, which the paper suspects
	// "will give better execution-time performance" (§3.2.1).
	SyncElimination bool
	// RecheckGuard re-evaluates the guard at the synchronization point
	// "for redundancy" (§3.2).
	RecheckGuard bool
	// PreCheckGuard evaluates each guard against the parent's state
	// before spawning — the third placement §3.2 allows ("the GUARD
	// can be executed before spawning the alternative") — so obviously
	// closed alternatives never pay setup cost. Guards that pass are
	// still evaluated in the child after the body.
	PreCheckGuard bool
	// Claim overrides the commit arbiter.
	Claim ClaimFunc
	// Probe, when non-nil, observes the block's execution (spawns,
	// faults, exits, commit) — see AltProbe.
	Probe AltProbe
}

// Result describes a committed block.
type Result struct {
	// Index is the winning alternative's position in the alts slice.
	Index int
	// Name is the winning alternative's name.
	Name string
	// Winner is the winning child's PID.
	Winner ids.PID
	// Elapsed is the block's execution time on the runtime's clock.
	Elapsed time.Duration
	// Failures counts alternatives whose guard failed before commit.
	Failures int
	// TooLate counts alternatives that succeeded after the winner.
	TooLate int
	// WinnerCopies is the number of COW page copies the winner
	// performed (its share of the §4.1 memory-copying overhead).
	WinnerCopies int64
	// Setup, Runtime, Selection decompose Elapsed into the paper's
	// §4.3 overhead phases, measured on the runtime's clock: Setup runs
	// from block entry until every child body is started, Runtime until
	// the parent learns the winner, Selection through adoption and
	// sibling-elimination dispatch. Setup+Runtime+Selection == Elapsed.
	Setup     time.Duration
	Runtime   time.Duration
	Selection time.Duration
}

// childReport is what an alternative sends to its waiting parent.
type childReport struct {
	idx     int
	w       *World
	win     bool
	tooLate bool
	err     error
}

// RunAlt executes an alternative block: all alternatives run
// concurrently in private COW worlds; the first whose guard passes
// commits, its state is absorbed into w, and its siblings are
// eliminated. If every alternative fails, the block FAILs with
// ErrAllFailed and w is unchanged; likewise ErrTimeout after
// opts.Timeout.
func (w *World) RunAlt(opts Options, alts ...Alt) (Result, error) {
	rt := w.rt
	if len(alts) == 0 {
		return Result{}, fmt.Errorf("%w: empty block", ErrAllFailed)
	}
	if w.ctx == nil {
		return Result{}, fmt.Errorf("core: RunAlt outside a running world body")
	}
	if w.eliminated.Load() {
		return Result{}, ErrEliminated
	}
	start := rt.be.now()
	done := rt.be.newInbox()

	// Phase 0 (optional): pre-spawn guard screening against the
	// parent's state. Closed alternatives are dropped before any setup
	// cost is paid; indexes into the original slice are preserved.
	preFailures := 0
	live := make([]int, 0, len(alts))
	for i := range alts {
		if opts.PreCheckGuard && alts[i].Guard != nil {
			ok, gerr := alts[i].Guard(w)
			if gerr != nil || !ok {
				rt.log.Addf(start, trace.KindGuardFail, w.pid,
					"pre-spawn guard closed %q", alts[i].Name)
				preFailures++
				continue
			}
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		rt.log.Add(rt.be.now(), trace.KindBlockFail, w.pid, "all guards closed before spawning")
		return Result{}, ErrAllFailed
	}

	// Phase 1: allocate identities so every child can assume "I
	// complete, my siblings don't" (§3.3).
	pids := make([]ids.PID, len(live))
	for k, i := range live {
		name := alts[i].Name
		if name == "" {
			name = fmt.Sprintf("alt-%d", i+1)
		}
		pids[k] = rt.procs.Register(w.pid, name)
	}

	// Phase 2: build child worlds (setup overhead, charged to the
	// blocked parent). children is indexed by live slot k; reports
	// carry the original alternative index. Every child's set is derived
	// from one snapshot of the parent's.
	children := make([]*World, len(live))
	parentPreds := w.Predicates()
	sibPIDs := make([]ids.PID, 0, len(pids))
	for k, i := range live {
		var (
			space *mem.AddressSpace
			err   error
		)
		if opts.FullCopy {
			space, err = w.space.FullCopy()
			if rt.profile != nil {
				rt.chargeFork(w.ctx, 0)
				rt.chargeCopies(w.ctx, int64(w.space.ResidentPages()))
			}
		} else {
			rt.chargeFork(w.ctx, w.space.ResidentPages())
			space, err = w.space.Fork()
		}
		if err != nil {
			return Result{}, fmt.Errorf("spawn %q: %w", alts[i].Name, err)
		}
		sibPIDs = append(append(sibPIDs[:0], pids[:k]...), pids[k+1:]...)
		preds, err := parentPreds.WithComplete(pids[k])
		if err == nil {
			preds, err = preds.WithFail(sibPIDs...)
		}
		if err != nil {
			return Result{}, fmt.Errorf("spawn %q: %w", alts[i].Name, err)
		}
		cw := &World{
			rt:         rt,
			pid:        pids[k],
			name:       alts[i].Name,
			space:      space,
			preds:      preds,
			box:        rt.be.newInbox(),
			ownedSpace: true,
			probe:      opts.Probe,
		}
		rt.registerWorld(cw)
		children[k] = cw
		if rt.log != nil {
			rt.log.Addf(start, trace.KindSpawn, cw.pid, "alt %d of %v", i+1, w.pid)
		}
		if opts.Probe != nil {
			opts.Probe.ChildSpawned(cw.pid, cw.name, rt.be.now())
		}
	}

	claim := opts.Claim
	if claim == nil {
		if box := rt.claimFactory.Load(); box != nil {
			claim = box.f(w)
		}
	}
	if claim == nil {
		arb := &arbiter.Local{}
		claim = func(cw *World) bool { return arb.Claim(cw.pid) }
	}

	// Phase 3: run the alternatives, the first one first. With fewer free
	// cores than alternatives the one that runs first finishes first.
	// Real mode readies the first alternative last, in the order 2, …, n,
	// 1: Go runs the goroutine created last next on the creating thread
	// (its run-next slot), so the first alternative takes the processor
	// as soon as the parent parks in alt_wait, and the others wait in the
	// run queue in block order for any idle thread to steal. Simulated
	// mode spawns in block order and its scheduler starts them that way.
	first := 0
	if rt.realBE != nil {
		first = 1
	}
	for j := range live {
		k := (j + first) % len(live)
		i := live[k]
		alt, cw, idx := alts[i], children[k], i
		// Spawned under the world's lock, as in spawnServerLoop: an
		// elimination that finds no handle releases the pages itself,
		// which it must never do under a body that is already running.
		cw.mu.Lock()
		handle := rt.be.spawn(cw.name, func(ctx execCtx) {
			cw.ctx = ctx
			defer cw.exitCleanup()
			rt.runAlternative(idx, alt, cw, opts, claim, done)
		})
		cw.handle = handle
		dead := cw.terminated
		cw.mu.Unlock()
		if dead {
			// Eliminated before the handle existed (an ancestor resolved
			// against the block mid-spawn): cancel the body immediately.
			handle.kill()
		}
	}
	// Setup ends here: every execution environment exists and every
	// body has been started (§4.3 "creating execution environments").
	setupDone := rt.be.now()
	if opts.Probe != nil {
		opts.Probe.SetupDone(setupDone, len(live))
	}

	// Phase 4: alt_wait — the parent remains blocked while the
	// children execute (§4.1).
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = -1
	}
	var winner *childReport
	failures, tooLate, reports := 0, 0, 0
	for winner == nil {
		v, ok := done.get(w.ctx, timeout)
		if !ok {
			if w.Cancelled() {
				return Result{}, rt.abandonBlock(w, claim, children, done, reports, len(live))
			}
			// TIMEOUT: claim the block for the parent so no child can
			// commit afterwards ("too late", §3.2.1).
			if claim(w) {
				rt.log.Add(rt.be.now(), trace.KindTimeout, w.pid, "alt_wait timeout")
				rt.propagate(eliminations(children))
				return Result{}, ErrTimeout
			}
			// Either a child committed concurrently (its report is in
			// flight) or the commit arbiter itself is unavailable (a
			// distributed claim with no quorum): wait for the
			// remaining reports to distinguish the two.
			timeout = -1
			continue
		}
		rep, okType := v.(childReport)
		if !okType {
			continue
		}
		reports++
		switch {
		case rep.win:
			winner = &rep
		case rep.tooLate:
			tooLate++
		default:
			failures++
			if failures == len(live) {
				rt.log.Add(rt.be.now(), trace.KindBlockFail, w.pid, "all alternatives failed")
				return Result{}, ErrAllFailed
			}
		}
		if winner == nil && reports == len(live) {
			// Every child is terminal and none committed: the claims
			// were refused without a winner (an unreachable quorum).
			// Nothing can ever commit — the block fails as a timeout
			// would ("preserve the at-most-one semantics", §3.2.1).
			rt.log.Add(rt.be.now(), trace.KindBlockFail, w.pid, "synchronization unavailable")
			rt.propagate(eliminations(children))
			return Result{}, ErrTimeout
		}
	}

	// Phase 5: commit — absorb the winner's state by atomically
	// replacing the page map (§3.2), then eliminate the siblings.
	// Runtime ends when the parent learns the winner; everything from
	// here on is the §4.3 selection phase.
	winnerAt := rt.be.now()
	ww := winner.w
	winnerCopies := ww.CopiedPages()
	rt.procs.SetStatus(ww.pid, proc.Completed) //nolint:errcheck // status was Running
	if err := w.space.Adopt(ww.space); err != nil {
		return Result{}, fmt.Errorf("adopt winner %v: %w", ww.pid, err)
	}
	w.inheritDeferred(ww)
	rt.unregisterWorld(ww)
	if rt.log != nil {
		rt.log.Addf(rt.be.now(), trace.KindCommit, ww.pid, "absorbed into %v", w.pid)
	}
	if opts.Probe != nil {
		opts.Probe.Committed(ww.pid, rt.be.now())
	}

	// Selection overhead: resolving the winner's fate contradicts every
	// sibling's "winner can't complete" assumption, which is exactly
	// the sibling elimination of §3.2.1. Synchronous mode performs it
	// on the parent's critical path; asynchronous mode (the default the
	// paper favours) hands it to a reaper so the parent resumes
	// immediately.
	work := append([]propEvent{{resolvePID: ww.pid, completed: true}},
		eliminationsExceptWorld(children, ww)...)
	// The paper's selection cost covers "deleting C_j such that j≠best,
	// cleaning up system state" — cleanup is owed for every non-winning
	// sibling, whether it is still running or already self-terminated.
	siblings := len(children) - 1
	if opts.SyncElimination {
		rt.chargeElimination(w.ctx, siblings)
		rt.propagate(work)
		if rt.realBE != nil {
			// A kernel deschedules what it kills; the Go scheduler keeps
			// it queued. The first alternative runs from the run-next
			// slot and its report wakes the parent into the same slot, so
			// the losers are usually still in the run queue, never
			// started, holding their forks of the parent's pages until
			// the time slice ends ~10 ms and many blocks later. One yield
			// lets them reach runAlternative, find themselves eliminated
			// and exit without entering their bodies (a loser that had
			// started stops at its next runtime call) before the parent
			// goes on.
			runtime.Gosched()
		}
	} else {
		rt.be.spawn("reaper", func(ctx execCtx) {
			rt.chargeElimination(ctx, siblings)
			rt.propagate(work)
		})
	}

	end := rt.be.now()
	return Result{
		Index:        winner.idx,
		Name:         ww.name,
		Winner:       ww.pid,
		Elapsed:      end.Sub(start),
		Failures:     failures + preFailures,
		TooLate:      tooLate,
		WinnerCopies: winnerCopies,
		Setup:        setupDone.Sub(start),
		Runtime:      winnerAt.Sub(setupDone),
		Selection:    end.Sub(winnerAt),
	}, nil
}

// runAlternative is the child-side protocol: body, guard, synchronize.
func (rt *Runtime) runAlternative(idx int, alt Alt, cw *World, opts Options, claim ClaimFunc, done inbox) {
	rep := childReport{idx: idx, w: cw}
	if cw.eliminated.Load() {
		// Eliminated while still in the run queue (a sibling committed
		// first): like a process killed before it was ever scheduled, it
		// executes nothing. eliminateOne already settled its status.
		if opts.Probe != nil {
			opts.Probe.ChildExit(cw.pid, OutcomeUnstarted, rt.be.now(), 0)
		}
		rep.err = ErrEliminated
		done.put(rep)
		return
	}
	err := alt.Body(cw)
	if err == nil && alt.Guard != nil {
		err = evalGuard(alt.Guard, cw)
		if err == nil && opts.RecheckGuard {
			// Redundant re-check at the synchronization point (§3.2).
			err = evalGuard(alt.Guard, cw)
		}
	}
	if err != nil {
		if rt.log != nil {
			rt.log.Addf(rt.be.now(), trace.KindGuardFail, cw.pid, "%v", err)
		}
		if opts.Probe != nil {
			// A body that errors after its world was cancelled lost an
			// elimination race; only report a genuine failure when the
			// child failed on its own.
			outcome := OutcomeGuardFail
			if cw.Cancelled() {
				outcome = OutcomeCancelled
			}
			opts.Probe.ChildExit(cw.pid, outcome, rt.be.now(), cw.CopiedPages())
		}
		if cw.markTerminated() {
			rt.procs.SetStatus(cw.pid, proc.Failed) //nolint:errcheck
			rt.unregisterWorld(cw)
			rt.propagate([]propEvent{{resolvePID: cw.pid, completed: false}})
		}
		rep.err = err
		done.put(rep)
		return
	}
	if rt.log != nil {
		rt.log.Add(rt.be.now(), trace.KindGuardPass, cw.pid, alt.Name)
	}
	if cw.Terminated() || !claim(cw) {
		// "It is informed that it is 'too late' for the
		// synchronization, and it should terminate itself" (§3.2.1).
		if rt.log != nil {
			rt.log.Add(rt.be.now(), trace.KindTooLate, cw.pid, alt.Name)
		}
		if opts.Probe != nil {
			opts.Probe.ChildExit(cw.pid, OutcomeTooLate, rt.be.now(), cw.CopiedPages())
		}
		if cw.markTerminated() {
			rt.procs.SetStatus(cw.pid, proc.Eliminated) //nolint:errcheck
			rt.unregisterWorld(cw)
			rt.propagate([]propEvent{{resolvePID: cw.pid, completed: false}})
		}
		rep.tooLate = true
		done.put(rep)
		return
	}
	// Winner: hand the space to the parent before reporting so the
	// exit path does not release it. The probe fires before the report
	// so the win event is ordered before the parent's commit.
	if opts.Probe != nil {
		opts.Probe.ChildExit(cw.pid, OutcomeWin, rt.be.now(), cw.CopiedPages())
	}
	cw.markTerminated()
	cw.transferSpace()
	rep.win = true
	done.put(rep)
}

// abandonBlock tears down an alternative block whose parent was
// cancelled while waiting in alt_wait (a job deadline or client abandon
// in the service layer): the request's entire speculative subtree must
// be freed. It first tries to claim the block for the parent — success
// means no child ever commits, so the children are simply eliminated. A
// failed claim means a child won the commit race concurrently: its
// report is (or is about to be) in the inbox and its space was
// transferred for an adoption that will never happen. That space is
// reclaimed and the child's fate resolved as not-completed — exactly as
// if it had lost the claim (§3.2.1's at-most-one semantics hold because
// nothing observable ever escaped the block).
func (rt *Runtime) abandonBlock(w *World, claim ClaimFunc, children []*World, done inbox, reports, live int) error {
	rt.log.Add(rt.be.now(), trace.KindEliminate, w.pid, "block abandoned (parent cancelled)")
	if !claim(w) {
		// The claim is already taken: either a child won (its report is
		// in flight) or a distributed arbiter is unreachable (every
		// child will report too-late). Wait for reports to distinguish.
		var winner *World
		if rt.realBE != nil {
			// Wait with a nil context: the parent itself is cancelled,
			// but every spawned child reports exactly once (win, fail,
			// or too-late), so the loop terminates.
			for winner == nil && reports < live {
				v, ok := done.get(nil, -1)
				if !ok {
					break
				}
				if rep, isRep := v.(childReport); isRep {
					reports++
					if rep.win {
						winner = rep.w
					}
				}
			}
		} else {
			// Simulated mode: the parent proc is being unwound and
			// cannot park again; settle for the reports already queued.
			for _, v := range done.drain() {
				if rep, isRep := v.(childReport); isRep && rep.win {
					winner = rep.w
				}
			}
		}
		if winner != nil {
			// Reclaim the transferred-but-never-adopted space and
			// resolve the winner as not-completed so worlds that
			// assumed its fate (split server copies) settle correctly.
			winner.space.Discard()
			_ = rt.procs.SetStatus(winner.pid, proc.Eliminated)
			rt.unregisterWorld(winner)
			work := eliminationsExceptWorld(children, winner)
			work = append(work, propEvent{resolvePID: winner.pid, completed: false})
			rt.propagate(work)
			return ErrEliminated
		}
	}
	rt.propagate(eliminations(children))
	return ErrEliminated
}

func evalGuard(g func(w *World) (bool, error), cw *World) error {
	ok, err := g(cw)
	if err != nil {
		return err
	}
	if !ok {
		return ErrGuardFailed
	}
	return nil
}

func eliminations(children []*World) []propEvent {
	return eliminationsExceptWorld(children, nil)
}

func eliminationsExceptWorld(children []*World, skip *World) []propEvent {
	out := make([]propEvent, 0, len(children))
	for _, c := range children {
		if c == skip {
			continue
		}
		out = append(out, propEvent{eliminate: c})
	}
	return out
}
