package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altrun/internal/checkpoint"
	"altrun/internal/consensus"
	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/membership"
	"altrun/internal/serve"
	"altrun/internal/stats"
	"altrun/internal/trace"
	"altrun/internal/transport"
)

// distbench measures what distributed commit costs: the same closed-
// loop alternative-block workload is run with the local in-process
// arbiter, with every block's commit decided by its own majority-
// consensus ballot, and with commits coalesced into batched quorum
// rounds (group commit) across a real TCP peer group of 1, 3, and 5
// nodes (§3.2.1). At 3 and 5 nodes one voter is crashed mid-run: the
// quorum holds and the remaining blocks keep committing. Rows carry
// commit latency (p50/p95), committed blocks per second, and the
// transport's message/byte/RTT accounting. A churn section kills and
// restarts members of a gossiped group while jobs commit and an rfork
// driver forwards requests to ring-placed peers.
//
// Usage: altbench distbench [-quick] [-levels 1,3,5] [-minratio R] [-o BENCH_dist.json]

// distLevelResult is one (nodes, mode) row.
type distLevelResult struct {
	Nodes        int                `json:"nodes"`
	Mode         string             `json:"mode"` // "local" or "consensus-batch"
	Jobs         int                `json:"jobs"`
	P50MS        float64            `json:"p50_ms"`
	P95MS        float64            `json:"p95_ms"`
	MeanMS       float64            `json:"mean_ms"`
	Throughput   float64            `json:"committed_blocks_per_sec"`
	VoterCrashed bool               `json:"voter_crashed,omitempty"`
	Net          *trace.NetSnapshot `json:"net,omitempty"`
}

// distChurnResult is one kill/restart run over a gossiped peer group:
// throughput in three phases (steady, two nodes dead, rejoined), the
// membership layer's detection and rejoin latencies, and the rfork
// placement success rate through the schedule.
type distChurnResult struct {
	Nodes          int     `json:"nodes"`
	Killed         int     `json:"killed"`
	PhaseSec       float64 `json:"phase_sec"`
	SteadyBPS      float64 `json:"steady_blocks_per_sec"`
	ChurnBPS       float64 `json:"churn_blocks_per_sec"`
	RecoveredBPS   float64 `json:"recovered_blocks_per_sec"`
	ChurnRatio     float64 `json:"churn_ratio"` // churn/steady throughput
	DetectMS       float64 `json:"detect_ms"`   // kill → both deaths gossiped to node 1
	RejoinMS       float64 `json:"rejoin_ms"`   // restart → full view at node 1
	FinalEpoch     int64   `json:"final_epoch"`
	RForkAttempts  int64   `json:"rfork_attempts"`
	RForkDelivered int64   `json:"rfork_delivered"`
	RForkFallbacks int64   `json:"rfork_local_fallbacks"`
	RForkSuccess   float64 `json:"rfork_success"` // (delivered+fallback)/attempts
	BlocksLost     int64   `json:"blocks_lost"`   // jobs whose block lost its claim outright
	GossipMsgs     int64   `json:"gossip_msgs"`
	GossipBytes    int64   `json:"gossip_bytes"`
}

// distBenchReport is the BENCH_dist.json document.
type distBenchReport struct {
	reportMeta
	Clients int               `json:"clients"`
	Levels  []distLevelResult `json:"levels"`
	Churn   []distChurnResult `json:"churn,omitempty"`
}

const (
	distbenchClients = 8
	distbenchSeed    = 7
)

// distbenchJob is the synthetic block: two correct alternatives of
// distinct costs racing for one commit.
func distbenchJob(seq int) serve.Job {
	work := func(d time.Duration) func(w *core.World) error {
		return func(w *core.World) error {
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) {
				if w.Cancelled() {
					return errors.New("cancelled")
				}
				time.Sleep(200 * time.Microsecond)
			}
			return w.WriteUint64(0, uint64(seq))
		}
	}
	return serve.Job{
		Kind: "distbench",
		Name: fmt.Sprintf("block-%d", seq),
		Alts: []core.Alt{
			{Name: "fast", Body: work(time.Millisecond)},
			{Name: "slow", Body: work(3 * time.Millisecond)},
		},
		SpaceSize: 4096,
		Deadline:  30 * time.Second,
	}
}

// Commit-arbiter modes A/B-ed per node count.
const (
	distModeLocal = "local"
	distModeBatch = "consensus-batch" // group commit: coalesced rounds
)

// runDistLevel runs one (nodes, mode) measurement. In distModeBatch a
// voter runs on every fleet member and each job's block claims a quorum
// from node 1 through its coalescer; crashVoter kills the last member's
// voter once half the jobs are in.
func runDistLevel(nodes, jobs int, mode string, crashVoter bool) (distLevelResult, error) {
	res := distLevelResult{Nodes: nodes, Mode: mode}
	consensusMode := mode != distModeLocal

	fleet, err := transport.NewTCPFleet(nodes, distbenchSeed)
	if err != nil {
		return res, err
	}
	defer fleet.Close()
	eps := fleet.Endpoints()
	members := make([]ids.NodeID, len(eps))
	var voters []*consensus.Voter
	for i, ep := range eps {
		members[i] = ep.ID()
		if consensusMode {
			voters = append(voters, consensus.StartVoter(ep, ""))
		}
	}
	defer func() {
		for _, v := range voters {
			v.Stop()
		}
	}()

	cfg := serve.Config{
		Workers:    distbenchClients,
		SpecTokens: 2 * distbenchClients,
		MaxDegree:  2,
		QueueDepth: 2 * distbenchClients,
	}
	if consensusMode {
		co := consensus.StartCoalescer(eps[0], members, "", consensus.Config{Net: fleet.Counters()})
		defer co.Stop()
		cfg.NewClaim = func(job serve.Job, id uint64) core.ClaimFunc {
			key := fmt.Sprintf("bench/%s/%d", job.Name, id)
			return func(w *core.World) bool {
				return co.Claim(transport.Background(), key, w.PID()).Won
			}
		}
	}
	pool, err := serve.NewPool(cfg)
	if err != nil {
		return res, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Close(ctx)
	}()

	var (
		mu        sync.Mutex
		latencies stats.Sample
		firstErr  error
		submitted int
		crashOnce sync.Once
	)
	jobsPerClient := jobs / distbenchClients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < distbenchClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			for j := 0; j < jobsPerClient; j++ {
				mu.Lock()
				submitted++
				half := submitted >= jobs/2
				mu.Unlock()
				if half && crashVoter && len(voters) > 0 {
					crashOnce.Do(func() {
						voters[len(voters)-1].Stop()
						res.VoterCrashed = true
					})
				}
				tk, err := pool.Submit(distbenchJob(client*jobsPerClient + j))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d submit: %w", client, err)
					}
					mu.Unlock()
					return
				}
				r, err := tk.Wait(ctx)
				if err != nil || r.Status != serve.StatusDone {
					mu.Lock()
					if firstErr == nil {
						if err == nil {
							err = fmt.Errorf("status %v: %w", r.Status, r.Err)
						}
						firstErr = fmt.Errorf("client %d job %d: %w", client, j, err)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				latencies.Add(float64(r.Elapsed.Nanoseconds()) / 1e6)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}

	p50, err := latencies.Percentile(50)
	if err != nil {
		return res, err
	}
	p95, err := latencies.Percentile(95)
	if err != nil {
		return res, err
	}
	res.Jobs = latencies.N()
	res.P50MS = p50
	res.P95MS = p95
	res.MeanMS = latencies.Mean()
	res.Throughput = float64(latencies.N()) / elapsed.Seconds()
	if consensusMode {
		snap := fleet.Counters().Snapshot()
		res.Net = &snap
	}
	return res, nil
}

// runDistChurn drives a gossiped peer group of n nodes through a
// kill/restart schedule: membership agents and voters on every member,
// coalescers on four submitter nodes re-deriving their quorum from each
// ViewUpdate, a closed-loop block workload committing through group
// consensus, and an rfork driver shipping checkpoint images to ring-
// picked peers. Phase 1 is steady state; at phase 2 the two highest
// non-submitter nodes are crashed (voter and agent stopped, transport
// isolated); at phase 3 they are healed and rejoin through the -join
// handshake. The interesting numbers are the churn-phase throughput
// ratio and the rfork delivery rate across the failure window.
func runDistChurn(nodes int, phase time.Duration) (distChurnResult, error) {
	const (
		killCount  = 2
		submitters = 4
		rforkPace  = 10 * time.Millisecond
	)
	// Generous probe/suspicion constants, scaled with the group: the
	// workload saturates the box, and a delayed ack must not read as a
	// death — false suspicions flap the view and the epoch, which is
	// noise here. Large in-process groups oversubscribe the scheduler
	// hardest, so they get slower probes and a longer refutation
	// window, and each phase stretches to cover the suspicion timeout.
	probeInterval := 100 * time.Millisecond
	suspicionMult := 6
	if nodes > 32 {
		probeInterval = 250 * time.Millisecond
		suspicionMult = 8
	}
	suspicion := time.Duration(suspicionMult) * probeInterval
	if minPhase := 3 * suspicion; phase < minPhase {
		phase = minPhase
	}
	res := distChurnResult{Nodes: nodes, Killed: killCount, PhaseSec: phase.Seconds()}
	if nodes < submitters+killCount+2 {
		return res, fmt.Errorf("churn needs at least %d nodes, got %d", submitters+killCount+2, nodes)
	}
	fleet, err := transport.NewTCPFleet(nodes, distbenchSeed)
	if err != nil {
		return res, err
	}
	defer fleet.Close()
	eps := fleet.Endpoints()
	members := make([]ids.NodeID, nodes)
	static := make([]membership.Peer, nodes)
	for i, ep := range eps {
		members[i] = ep.ID()
		static[i] = membership.Peer{ID: ep.ID()}
	}

	voters := make([]*consensus.Voter, nodes)
	for i, ep := range eps {
		voters[i] = consensus.StartVoter(ep, "")
	}
	ccfg := consensus.Config{Net: fleet.Counters()}
	cos := make([]*consensus.Coalescer, submitters)
	for i := 0; i < submitters; i++ {
		cos[i] = consensus.StartCoalescer(eps[i], members, "", ccfg)
	}
	defer func() {
		for _, co := range cos {
			co.Stop()
		}
		for _, v := range voters {
			v.Stop()
		}
	}()

	// Every node receives forwarded rfork requests; delivery is counted
	// at the receivers, so a request dropped on the floor by an isolated
	// node's partition never counts.
	var delivered atomic.Int64
	recvSvcs := make([]transport.Handle, nodes)
	for i, ep := range eps {
		inbox := ep.Bind(checkpoint.RForkPort)
		recvSvcs[i] = ep.Spawn(fmt.Sprintf("churn-recv-%d", i+1), func(p transport.Proc) {
			for {
				env, ok := inbox.Recv(p)
				if !ok {
					return
				}
				if _, ok := env.Payload.([]byte); ok {
					delivered.Add(1)
				}
			}
		})
	}
	defer func() {
		for _, svc := range recvSvcs {
			svc.Kill()
		}
	}()

	mc := make([]*membership.Counters, nodes)
	agents := make([]*membership.Agent, nodes)
	agentCfg := func(i int, join []membership.Peer) membership.Config {
		cfg := membership.Config{
			Join:          join,
			ProbeInterval: probeInterval,
			SuspicionMult: suspicionMult,
			Counters:      mc[i],
			OnView: func(v membership.View) {
				// Epoch-fenced reconfiguration, exactly as altserved
				// wires it: fence the voter, re-derive the quorum.
				voters[i].SetEpoch(v.Epoch)
				if i < submitters {
					cos[i].SetView(v.Epoch, v.Members)
				}
			},
		}
		if join == nil {
			cfg.Static = static
		}
		return cfg
	}
	for i, ep := range eps {
		mc[i] = &membership.Counters{}
		agents[i] = membership.Start(ep, agentCfg(i, nil))
	}
	defer func() {
		for _, a := range agents {
			a.Stop()
		}
	}()

	// Closed-loop block workload: claims hash across the submitters'
	// coalescers, so every commit is a batched quorum round over the
	// live view.
	pool, err := serve.NewPool(serve.Config{
		Workers:    distbenchClients,
		SpecTokens: 2 * distbenchClients,
		MaxDegree:  2,
		QueueDepth: 2 * distbenchClients,
		NewClaim: func(job serve.Job, id uint64) core.ClaimFunc {
			co := cos[int(id)%submitters]
			key := fmt.Sprintf("churn/%s/%d", job.Name, id)
			return func(w *core.World) bool {
				return co.Claim(transport.Background(), key, w.PID()).Won
			}
		},
	})
	if err != nil {
		return res, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Close(ctx)
	}()

	var (
		completed atomic.Int64
		lost      atomic.Int64
		errMu     sync.Mutex
		firstErr  error
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	failWith := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for c := 0; c < distbenchClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := pool.Submit(distbenchJob(client*1_000_000 + seq))
				if err != nil {
					failWith(fmt.Errorf("client %d submit: %w", client, err))
					return
				}
				r, err := tk.Wait(ctx)
				if err != nil {
					failWith(fmt.Errorf("client %d block %d: %w", client, seq, err))
					return
				}
				if r.Status == serve.StatusDone {
					completed.Add(1)
				} else {
					// A block whose claims all exhausted their retries
					// under the churn: at-most-one-commit held (nobody
					// committed), so it is a counted loss, not an abort.
					lost.Add(1)
				}
			}
		}(c)
	}

	// RFork driver: consistent-hash placement over node 1's live view,
	// one raw JSON request frame per attempt, as altserved forwards a
	// job; no eligible peer means a counted local fallback (the
	// altserved behavior), never a stall.
	var attempts, fallbacks atomic.Int64
	rforkDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 0; ; seq++ {
			select {
			case <-rforkDone:
				return
			case <-time.After(rforkPace):
			}
			key := fmt.Sprintf("rfork/churn-%d", seq)
			attempts.Add(1)
			to, ok := agents[0].Pick(key, func(m membership.Member) bool {
				return m.Node != eps[0].ID()
			})
			if !ok {
				fallbacks.Add(1)
				continue
			}
			body := []byte(fmt.Sprintf(`{"kind":"distbench","seq":%d}`, seq))
			eps[0].Send(transport.Addr{Node: to, Port: checkpoint.RForkPort}, body)
		}
	}()

	await := func(what string, timeout time.Duration, cond func() bool) (time.Duration, error) {
		start := time.Now()
		for !cond() {
			if time.Since(start) > timeout {
				return 0, fmt.Errorf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
		return time.Since(start), nil
	}
	countPhase := func() int64 {
		before := completed.Load()
		time.Sleep(phase)
		return completed.Load() - before
	}
	fail := func(err error) (distChurnResult, error) {
		close(stop)
		close(rforkDone)
		wg.Wait()
		return res, err
	}

	// Phase 1: steady state over the full group.
	if _, err := await("initial convergence", 30*time.Second, func() bool {
		alive, _, _ := agents[0].StatusCounts()
		return alive == nodes
	}); err != nil {
		return fail(err)
	}
	res.SteadyBPS = float64(countPhase()) / phase.Seconds()

	// Phase 2: crash the two highest non-submitter nodes.
	killed := []int{nodes - 2, nodes - 1} // slice indexes
	churnStart := time.Now()
	for _, k := range killed {
		agents[k].Stop()
		voters[k].Stop()
		fleet.Isolate(eps[k].ID())
	}
	churnBlocks := completed.Load()
	// Detection is judged on the killed nodes specifically, so an
	// unrelated false suspicion elsewhere in the view cannot satisfy
	// (or pre-satisfy) the condition.
	detect, err := await("death detection", 30*time.Second, func() bool {
		gone := 0
		for _, m := range agents[0].Members() {
			if (m.Node == eps[killed[0]].ID() || m.Node == eps[killed[1]].ID()) &&
				m.Status != membership.StatusAlive && m.Status != membership.StatusSuspect {
				gone++
			}
		}
		return gone == killCount
	})
	if err != nil {
		return fail(err)
	}
	res.DetectMS = float64(detect.Nanoseconds()) / 1e6
	if rest := phase - time.Since(churnStart); rest > 0 {
		time.Sleep(rest)
	}
	res.ChurnBPS = float64(completed.Load()-churnBlocks) / time.Since(churnStart).Seconds()

	// Phase 3: heal and rejoin through the join handshake; the
	// restarted agents refute their own death tombstones.
	for _, k := range killed {
		for _, ep := range eps {
			fleet.Heal(eps[k].ID(), ep.ID())
		}
		voters[k] = consensus.StartVoter(eps[k], "")
		agents[k] = membership.Start(eps[k], agentCfg(k, []membership.Peer{{ID: eps[0].ID()}}))
	}
	// Rejoin is judged on the killed nodes specifically — "are they
	// alive again in node 1's view" — not on a momentarily flap-free
	// whole view, which a saturated box can't promise at large n.
	rejoin, err := await("rejoin convergence", 30*time.Second, func() bool {
		back := 0
		for _, m := range agents[0].Members() {
			if (m.Node == eps[killed[0]].ID() || m.Node == eps[killed[1]].ID()) &&
				m.Status == membership.StatusAlive {
				back++
			}
		}
		return back == killCount
	})
	if err != nil {
		return fail(err)
	}
	res.RejoinMS = float64(rejoin.Nanoseconds()) / 1e6
	res.RecoveredBPS = float64(countPhase()) / phase.Seconds()

	close(stop)
	close(rforkDone)
	wg.Wait()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		return res, err
	}
	// Let in-flight ships land before reading the delivery counter.
	time.Sleep(200 * time.Millisecond)

	if res.SteadyBPS > 0 {
		res.ChurnRatio = res.ChurnBPS / res.SteadyBPS
	}
	res.FinalEpoch = agents[0].Epoch()
	res.BlocksLost = lost.Load()
	res.RForkAttempts = attempts.Load()
	res.RForkDelivered = delivered.Load()
	res.RForkFallbacks = fallbacks.Load()
	if res.RForkAttempts > 0 {
		res.RForkSuccess = float64(res.RForkDelivered+res.RForkFallbacks) / float64(res.RForkAttempts)
	}
	for _, c := range mc {
		snap := c.Snapshot()
		res.GossipMsgs += snap.GossipMsgs
		res.GossipBytes += snap.GossipBytes
	}
	return res, nil
}

// parseLevels turns "1,3,5" into node counts.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty levels spec %q", s)
	}
	return out, nil
}

// runDistbench is the `altbench distbench` entry point.
func runDistbench(args []string) error {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_dist.json", "output JSON path ('-' for stdout only)")
	quick := fs.Bool("quick", false, "CI smoke mode: few jobs per level")
	levelSpec := fs.String("levels", "1,3,5", "comma-separated peer-group sizes to measure")
	minRatio := fs.Float64("minratio", 0, "fail unless consensus-batch/local throughput at every multi-node level is at least this (0 = no gate)")
	churnSpec := fs.String("churnlevels", "16", "comma-separated group sizes for the kill/restart churn runs ('' = skip)")
	churnPhase := fs.Duration("churnphase", 3*time.Second, "duration of each churn phase (steady, killed, rejoined)")
	minChurn := fs.Float64("minchurn", 0, "fail unless churn-phase throughput is at least this fraction of steady state (0 = no gate)")
	minSuccess := fs.Float64("minsuccess", 0, "fail unless the churn rfork success rate is at least this (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels(*levelSpec)
	if err != nil {
		return err
	}
	var churnLevels []int
	if *churnSpec != "" {
		if churnLevels, err = parseLevels(*churnSpec); err != nil {
			return err
		}
	}
	if *quick && *churnPhase > 1500*time.Millisecond {
		*churnPhase = 1500 * time.Millisecond
	}

	jobs := 96
	if *quick {
		jobs = 16
	}

	fmt.Println("distbench — local vs group-commit consensus over real TCP peer groups")
	fmt.Printf("%-6s %-16s %6s %10s %10s %10s %12s %8s %10s %8s\n",
		"nodes", "mode", "jobs", "p50 ms", "p95 ms", "mean ms", "blocks/s", "crashed", "msgs", "rounds")
	var results []distLevelResult
	local := map[int]float64{} // nodes → local-mode throughput
	for _, nodes := range levels {
		for _, mode := range []string{distModeLocal, distModeBatch} {
			crash := mode != distModeLocal && nodes >= 3
			res, err := runDistLevel(nodes, jobs, mode, crash)
			if err != nil {
				return fmt.Errorf("nodes=%d mode=%s: %w", nodes, mode, err)
			}
			results = append(results, res)
			if mode == distModeLocal {
				local[nodes] = res.Throughput
			}
			var msgs, rounds int64
			if res.Net != nil {
				msgs, rounds = res.Net.MsgsSent, res.Net.BallotRounds
			}
			fmt.Printf("%-6d %-16s %6d %10.2f %10.2f %10.2f %12.1f %8v %10d %8d\n",
				res.Nodes, res.Mode, res.Jobs, res.P50MS, res.P95MS, res.MeanMS,
				res.Throughput, res.VoterCrashed, msgs, rounds)
		}
	}
	fmt.Println("\nconsensus rows include transport accounting; a crashed voter at n≥3 leaves the quorum intact")

	var churns []distChurnResult
	if len(churnLevels) > 0 {
		fmt.Println("\nchurn — gossiped membership under a kill/restart schedule (2 nodes crashed, then rejoined)")
		fmt.Printf("%-6s %12s %12s %12s %7s %9s %9s %6s %9s\n",
			"nodes", "steady b/s", "churn b/s", "rejoin b/s", "ratio", "detect", "rejoin", "epoch", "rfork ok")
		for _, nodes := range churnLevels {
			cres, err := runDistChurn(nodes, *churnPhase)
			if err != nil {
				return fmt.Errorf("churn nodes=%d: %w", nodes, err)
			}
			churns = append(churns, cres)
			fmt.Printf("%-6d %12.1f %12.1f %12.1f %7.2f %7.0fms %7.0fms %6d %8.1f%%\n",
				cres.Nodes, cres.SteadyBPS, cres.ChurnBPS, cres.RecoveredBPS, cres.ChurnRatio,
				cres.DetectMS, cres.RejoinMS, cres.FinalEpoch, 100*cres.RForkSuccess)
		}
	}

	if err := writeReport(*out, distBenchReport{
		reportMeta: newReportMeta(),
		Clients:    distbenchClients,
		Levels:     results,
		Churn:      churns,
	}); err != nil {
		return err
	}

	for _, cres := range churns {
		if *minChurn > 0 && cres.ChurnRatio < *minChurn {
			return fmt.Errorf("churn-phase throughput at n=%d is %.2f of steady state, below the %.2f gate",
				cres.Nodes, cres.ChurnRatio, *minChurn)
		}
		if *minSuccess > 0 && cres.RForkSuccess < *minSuccess {
			return fmt.Errorf("rfork success at n=%d is %.2f, below the %.2f gate",
				cres.Nodes, cres.RForkSuccess, *minSuccess)
		}
	}

	if *minRatio > 0 {
		for _, res := range results {
			if res.Mode != distModeBatch || res.Nodes < 2 {
				continue
			}
			base := local[res.Nodes]
			if base <= 0 {
				continue
			}
			if ratio := res.Throughput / base; ratio < *minRatio {
				return fmt.Errorf("consensus-batch/local throughput at n=%d is %.2f, below the %.2f gate",
					res.Nodes, ratio, *minRatio)
			}
			fmt.Printf("gate: n=%d consensus-batch/local = %.2f (>= %.2f)\n",
				res.Nodes, res.Throughput/base, *minRatio)
		}
	}
	return nil
}
