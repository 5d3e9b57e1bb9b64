package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// namedSpan is one span of a block's tree. Spans of one block share the
// block's id; parent is an index into the same block's span list.
type namedSpan struct {
	name string
	span
	parent int // -1: the block span itself
	track  int // 0: the client's side; 1+i: alternative i
	n      int // operations covered (op spans)
}

// blockSpans builds the span tree of one traced block from the stamps
// its closures left:
//
//	block → serve.submit, serve.queue, job.init, core.setup,
//	        alt.body×N (→ mem.*, alt.work), alt.guard×N,
//	        core.select (→ claim), job.extract, job.cleanup, serve.finish
func blockSpans(b *blockRec) []namedSpan {
	spans := []namedSpan{{name: "block", span: b.span, parent: -1}}
	add := func(name string, s span, parent, track, n int) int {
		if s.start == 0 || s.end < s.start {
			return -1
		}
		spans = append(spans, namedSpan{name, s, parent, track, n})
		return len(spans) - 1
	}
	setupStart := b.start
	if !b.direct {
		add("serve.submit", span{b.start, b.submitEnd}, 0, 0, 0)
		if b.init.start != 0 {
			add("serve.queue", span{b.submitEnd, b.init.start}, 0, 0, 0)
		}
		add("job.init", b.init, 0, 0, 0)
		setupStart = b.init.end
	}
	// core.setup: the call (or Init's return) → the last body entered.
	// A body entered after the reply (a loser that was eliminated before
	// it was scheduled) ends the span at the reply.
	lastBody := int64(0)
	for i := range b.alts {
		lastBody = max(lastBody, b.alts[i].bodyStart)
	}
	add("core.setup", span{setupStart, min(lastBody, b.end)}, 0, 0, 0)
	for i := range b.alts {
		a := &b.alts[i]
		body := add("alt.body", span{a.bodyStart, a.bodyEnd}, 0, 1+i, 0)
		for _, op := range a.ops {
			add(op.name, op.span, body, 1+i, op.n)
		}
		if a.guardEnd != 0 {
			add("alt.guard", span{a.bodyEnd, a.guardEnd}, 0, 1+i, 0)
		}
	}
	if b.class == classCommitted {
		// core.select: the winner's own work is done → the caller (or the
		// job's Extract) has the committed state.
		selectEnd := b.end
		if b.extract.start != 0 {
			selectEnd = b.extract.start
		}
		sel := add("core.select", span{b.alts[b.winner].end(), selectEnd}, 0, 0, 0)
		add("claim", b.claim, sel, 1+b.winner, 0)
	}
	add("job.extract", b.extract, 0, 0, 0)
	if b.extract.end != 0 {
		add("serve.finish", span{b.extract.end, b.end}, 0, 0, 0)
	}
	add("job.cleanup", b.cleanup, 0, 0, 0)
	return spans
}

// selfTimes returns, per span, its duration minus the union of its
// children, with everything clipped to the block: the time of a layer
// is the time no layer below it accounts for.
func selfTimes(spans []namedSpan) []int64 {
	block := spans[0].span
	clip := func(s span) span { return span{max(s.start, block.start), min(s.end, block.end)} }
	children := make([][]span, len(spans))
	for _, s := range spans[1:] {
		children[s.parent] = append(children[s.parent], clip(s.span))
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = selfTime(clip(s.span), children[i])
	}
	return self
}

// traceBlocksPerClient bounds the trace file: the metrics use every
// traced block, the file keeps each client's first ones.
const traceBlocksPerClient = 200

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the kept spans in Chrome trace-event form.
func writeTrace(path string, workload string, blocks []*blockRec) error {
	var events []traceEvent
	kept := map[int]int{}
	for _, b := range blocks {
		if kept[b.client] >= traceBlocksPerClient {
			continue
		}
		kept[b.client]++
		id := fmt.Sprintf("c%d-%d", b.client, b.seq)
		if b.try > 1 {
			id += fmt.Sprintf(".try%d", b.try)
		}
		spans := blockSpans(b)
		for _, s := range spans {
			args := map[string]any{"block": id, "class": classNames[b.class]}
			if s.parent >= 0 {
				args["parent"] = spans[s.parent].name
			}
			if s.n > 0 {
				args["ops"] = s.n
			}
			events = append(events, traceEvent{
				Name: s.name, Cat: workload, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: 1, Tid: b.client*8 + s.track, Args: args,
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ns", "traceEvents": events})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// samples accumulates one per-layer timing.
type samples []float64

func (s *samples) add(ns int64, per float64) { *s = append(*s, float64(ns)/per) }

func (s samples) set(res *sliceResult, name string) {
	if len(s) > 0 {
		res.set(name, median(s), int64(len(s)))
	}
}

// layers fills every per-layer metric from the traced phase: medians of
// the spans, counter deltas between the phase's edges, and the probes.
func (h *harness) layers(ph *phase, res *sliceResult, last bool, outDir string) error {
	var (
		setup, sel, lag, claim                    samples
		submit, queue, finish                     samples
		jobInit, guard, extract, cleanup          samples
		firstWrite, rewrite, read                 samples
		recSetup, recRuntime, recSelect, recTotal samples
		benchSetup, benchRuntime, benchSelect     samples
		bodyAll, bodyLosers, blockNs, blockSelfNs int64
		shareNs                                   = map[string]int64{}
		committed                                 int64
	)
	blocks := ph.blocks
	if d, ok := driftOf(blocks, h.w.clients); ok {
		res.set("runtime.drift_frac", d, int64(len(blocks)))
	}
	for _, b := range blocks {
		if b.class != classCommitted {
			continue
		}
		committed++
		spans := blockSpans(b)
		self := selfTimes(spans)
		blockNs += b.dur()
		blockSelfNs += self[0]
		for i, s := range spans {
			shareNs[s.name] += self[i]
			switch s.name {
			case "core.setup":
				setup.add(s.dur(), 1e3)
			case "core.select":
				sel.add(s.dur(), 1e3)
			case "claim":
				claim.add(s.dur(), 1)
			case "serve.submit":
				submit.add(s.dur(), 1e3)
			case "serve.queue":
				queue.add(s.dur(), 1e3)
			case "serve.finish":
				finish.add(s.dur(), 1e3)
			case "job.init":
				jobInit.add(s.dur(), 1e3)
			case "job.extract":
				extract.add(s.dur(), 1e3)
			case "job.cleanup":
				cleanup.add(s.dur(), 1e3)
			case "mem.first_write":
				firstWrite.add(s.dur(), float64(max(s.n, 1)))
			case "mem.rewrite":
				rewrite.add(s.dur(), float64(max(s.n, 1)))
			case "mem.read":
				read.add(s.dur(), float64(max(s.n, 1)))
			}
		}
		win := &b.alts[b.winner]
		if win.guardEnd != 0 {
			guard.add(win.guardEnd-win.bodyEnd, 1e3)
		}
		// The commit is the winning claim where the benchmark wraps the
		// arbiter, else the end of the winner's own work.
		commitAt, lastLoser := max(b.claim.end, win.end()), int64(0)
		for i := range b.alts {
			a := &b.alts[i]
			if a.bodyStart == 0 {
				continue
			}
			d := max(a.end()-a.bodyStart, 0)
			bodyAll += d
			if i != b.winner {
				bodyLosers += d
				lastLoser = max(lastLoser, a.bodyEnd)
			}
		}
		lag.add(max(lastLoser-commitAt, 0), 1e3)
		if b.direct {
			// The benchmark's phases against the runtime's own: the first
			// step of "the layer sum matches the flight recorder".
			var lastBody int64
			for i := range b.alts {
				lastBody = max(lastBody, b.alts[i].bodyStart)
			}
			lastBody = min(lastBody, b.end)
			benchSetup.add(lastBody-b.start, 1)
			benchRuntime.add(max(win.end()-lastBody, 0), 1)
			benchSelect.add(b.end-win.end(), 1)
			recSetup.add(int64(b.res.Setup), 1)
			recRuntime.add(int64(b.res.Runtime), 1)
			recSelect.add(int64(b.res.Selection), 1)
			recTotal.add(int64(b.res.Elapsed), 1)
		}
	}

	setup.set(res, "core.setup_us")
	sel.set(res, "core.select_us")
	lag.set(res, "core.cancel_lag_us")
	res.set("core.wasted_body_frac", ratio(float64(bodyLosers), float64(bodyAll)), committed)
	firstWrite.set(res, "mem.first_write_ns")
	rewrite.set(res, "mem.rewrite_ns")
	read.set(res, "mem.read_ns")
	submit.set(res, "serve.submit_us")
	queue.set(res, "serve.queue_us")
	finish.set(res, "serve.finish_us")
	if h.env.net != nil {
		res.set("consensus.claim_us", median(claim)/1e3, int64(len(claim)))
	} else {
		claim.set(res, "arbiter.claim_ns")
	}
	if len(recTotal) > 0 {
		total := median(recTotal)
		worst := 0.0
		for _, pair := range [][2]samples{{benchSetup, recSetup}, {benchRuntime, recRuntime}, {benchSelect, recSelect}} {
			if d := median(pair[0]) - median(pair[1]); d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
		res.set("core.reconcile_err_frac", ratio(worst, total), int64(len(recTotal)))
	}
	if h.w.cMeanUs > 0 && committed > 0 {
		res.set("core.pi", h.w.cMeanUs/(float64(blockNs)/float64(committed)/1e3), committed)
	}
	res.set("trace.block_self_frac", ratio(float64(blockSelfNs), float64(blockNs)), committed)
	res.Shares = map[string]float64{}
	for name, ns := range shareNs {
		res.Shares[name] = ratio(float64(ns), float64(blockNs))
	}

	h.edgeMetrics(ph, res)
	if isSTM(h.w.name) {
		jobInit.set(res, "stm.seed_us")
		guard.set(res, "stm.guard_us")
		extract.set(res, "stm.readall_us")
		cleanup.set(res, "stm.close_us")
	}
	if !last {
		return nil
	}
	if err := h.probes(res); err != nil {
		return err
	}
	if outDir != "" {
		res.TraceFile = filepath.Join(outDir, h.w.name+".trace.json")
		return writeTrace(res.TraceFile, h.w.name, blocks)
	}
	return nil
}

func isSTM(name string) bool { return name == "stm_spec" || name == "stm_seq" }

// driftOf is how much slower blocks get while one set-up runs: the
// median time of the last third of a client's committed blocks over
// that of its first third, minus one, averaged over the clients.
func driftOf(blocks []*blockRec, clients int) (float64, bool) {
	perClient := make([][]float64, clients)
	for _, b := range blocks {
		if b.class == classCommitted {
			perClient[b.client] = append(perClient[b.client], float64(b.dur()))
		}
	}
	sum := 0.0
	for _, lat := range perClient {
		third := len(lat) / 3
		if third < 2*tailSamples {
			return 0, false
		}
		sum += ratio(median(lat[len(lat)-third:]), median(lat[:third])) - 1
	}
	return sum / float64(clients), true
}

// edgeMetrics are counter deltas between the edges of the traced
// interval, per attempted block.
func (h *harness) edgeMetrics(ph *phase, res *sliceResult) {
	a, z := ph.a, ph.z
	blockCount := len(ph.recs)
	blocks := float64(blockCount)
	n := int64(blockCount)
	per := func(name string, delta float64) { res.set(name, ratio(delta, blocks), n) }
	perK := func(name string, delta float64) { res.set(name, ratio(1000*delta, blocks), n) }

	dp := func(i int) float64 { return float64(z.page[i] - a.page[i]) }
	per("page.copies_per_block", dp(0))
	per("page.clones_per_block", dp(1))
	per("page.allocs_per_block", dp(2))
	res.set("page.recycled_frac", ratio(dp(3), dp(0)+dp(2)), n)
	perK("page.compactions_per_kblock", dp(4))

	resolutions := float64(z.sel.Resolutions - a.sel.Resolutions)
	per("core.resolutions_per_block", resolutions)
	res.set("core.subscribers_per_resolution", ratio(float64(z.sel.SubscribersVisited-a.sel.SubscribersVisited), resolutions), n)
	per("core.eliminations_per_block", float64(z.sel.Eliminations-a.sel.Eliminations))
	per("core.alias_walks_per_block", float64(z.sel.AliasWalks-a.sel.AliasWalks))
	perK("core.shard_contention_per_kblock", float64(z.sel.ShardContention-a.sel.ShardContention))

	sent, accepted := float64(z.msg.Sent-a.msg.Sent), float64(z.msg.Accepted-a.msg.Accepted)
	per("msg.sent_per_block", sent)
	per("msg.accepted_per_block", accepted)
	per("msg.ignored_per_block", float64(z.msg.Ignored-a.msg.Ignored))
	per("msg.splits_per_block", float64(z.msg.Splits-a.msg.Splits))
	res.set("msg.accepted_frac", ratio(accepted, sent), n)

	per("runtime.allocs_per_block", float64(z.mallocs-a.mallocs))
	res.set("runtime.gc_pause_frac", ratio(float64(z.pauseNs-a.pauseNs), float64(z.t-a.t)), n)
	res.set("runtime.heap_inuse_mb_end", float64(z.heapInuse)/(1<<20), 1)

	if h.env.pool != nil {
		per("serve.waves_per_block", float64(z.pool.Waves-a.pool.Waves))
		perK("serve.lazy_waves_per_kblock", float64(z.pool.LazyWaves-a.pool.LazyWaves))
		per("serve.alts_unspawned_per_block", float64(z.pool.AltsUnspawned-a.pool.AltsUnspawned))
		perK("serve.token_waits_per_kblock", float64(z.pool.TokenWaits-a.pool.TokenWaits))
		res.set("serve.spec_high_water", float64(z.pool.SpecHighWater), 1)
		res.set("serve.rejected_frac", ratio(float64(z.pool.JobsRejected-a.pool.JobsRejected), blocks), n)
	}
	if isSTM(h.w.name) {
		res.set("stm.fail_deadline_frac", ratio(float64(res.Classes[classDeadline]), blocks), n)
		res.set("stm.fail_all_alts_frac", ratio(float64(res.Classes[classAllFailed]), blocks), n)
		res.set("stm.fail_extract_frac", ratio(float64(res.Classes[classExtract]), blocks), n)
	}
	if h.env.net != nil {
		rounds := float64(z.net.BallotRounds - a.net.BallotRounds)
		per("consensus.rounds_per_block", rounds)
		res.set("consensus.claims_per_round", ratio(float64(z.net.BallotsCoalesced-a.net.BallotsCoalesced), rounds), n)
		per("transport.msgs_per_block", float64(z.net.MsgsSent-a.net.MsgsSent))
		per("transport.bytes_per_block", float64(z.net.BytesSent-a.net.BytesSent))
		res.set("transport.rtt_p50_us", z.net.RTTP50MS*1e3, z.net.RTTSamples)
		perK("transport.dropped_per_kblock", float64(z.net.Dropped-a.net.Dropped))
		perK("transport.retries_per_kblock", float64(z.net.Retries-a.net.Retries))
		frames := float64(z.net.CodecFrames - a.net.CodecFrames)
		fallbacks := float64(z.net.CodecFallbacks - a.net.CodecFallbacks)
		per("codec.frames_per_block", frames+fallbacks)
		res.set("codec.fallback_frac", ratio(fallbacks, frames+fallbacks), n)
	}
}

// sortedShares lists the layer shares, largest first.
func sortedShares(shares map[string]float64) []string {
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
