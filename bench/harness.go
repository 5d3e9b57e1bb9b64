package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"altrun/internal/msg"
	"altrun/internal/serve"
	"altrun/internal/trace"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measured time, summed over the slices
	traced   bool
	outDir   string // where a traced run writes <workload>.trace.json
}

// metricValue is one reported number. N is how many samples it rests on.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"-"`
}

// sliceSeconds is the length of one slice. A run is cut into slices and
// every slice runs on a fresh set-up in a fresh process, for reasons
// found while probing the seed commit:
//
//   - A block's cost grows with the number of blocks the runtime has
//     already run (stm_seq's p50 doubles in 12 s), so in one long window
//     every figure depends on how many blocks fitted in, which a handful
//     of deadline stalls changes by half. Slices on fresh set-ups are
//     alike, and the growth is reported on its own (runtime.drift_frac).
//   - The program can crash its process (see measure); a crash then
//     costs one slice, not the run.
//   - A figure combined from eight slices is moved far less by a burst of
//     noise from the box's other tenants than a whole-window figure is.
//
// A process of its own also makes each slice one honest sample of
// setup_s: the parent starting the process to the first block's reply,
// with no heap, pool or scheduler state left over from the slice before.
const sliceSeconds = 1.5

// warmupSeconds are discarded at the start of every slice: they fill
// page pools, serve's EWMA history and the TCP connections.
const warmupSeconds = 0.25

// abortSeconds is how long every traced stm slice runs the AbortEvery-3
// stream after its measured interval (see stmSpec).
const abortSeconds = 0.4

// opTries is how often a client sends one block before it gives the
// operation up. An operation is what a user of the system asks for: one
// block's inputs brought to a commit. A block that does not commit
// (rejected, deadline, every alternative failed, a reply that never
// came) is sent again with the same inputs after a pause, as a client of
// a transactional store does. Every attempt is a block of its own in
// every metric (a failed one counts against committed_frac, and its
// stall is not charged to blocks_per_s); only the last line's
// "attempted" and "failed" count operations.
//
// The pause is retryPause, doubled with every further attempt. Probing
// the seed commit showed why it is needed: 0.3-0.7 % of the stm blocks
// lose a reply, and a block sent the instant its predecessor failed runs
// beside that one's tear-down (the cancelled subtree, the store's
// close) and fails five to twenty times as often: of 40 000 operations
// on one runtime 858 needed a second block, 164 a third, 63 a fourth and
// one was not done after eight. With 5 ms between them it was 985, 65,
// 1 and none. The pause is idle time: it is in no block's time and
// burns no CPU.
const (
	opTries       = 24
	maxRetryPause = 100 * time.Millisecond
)

// retryPause is a variable so that a test need not wait.
var retryPause = 5 * time.Millisecond

// sliceSpec says which slice of a run a process measures.
type sliceSpec struct {
	index  int
	traced bool // record spans and report the per-layer metrics
	last   bool // the run's last slice also runs the probes and writes the trace file
}

// plan cuts a run into slices. In a traced run every third slice, from
// the first, runs with spans off, as the reference the tracing overhead
// is taken against; interleaved, so that whatever changes over a run
// changes both kinds alike.
func plan(cfg runConfig) []sliceSpec {
	n := max(1, int(cfg.seconds/sliceSeconds))
	if cfg.traced {
		n = max(n, 2)
	}
	specs := make([]sliceSpec, n)
	lastTraced := 0
	for k := range specs {
		specs[k] = sliceSpec{index: k, traced: cfg.traced && k%3 != 0}
		if specs[k].traced || !cfg.traced {
			lastTraced = k
		}
	}
	specs[lastTraced].last = true
	return specs
}

// sliceResult is what one slice reports; a child process prints it as
// the JSON of its last line.
type sliceResult struct {
	Traced     bool               `json:"traced"`
	OpsFailed  int64              `json:"ops_failed"`       // operations given up: none of their blocks committed
	Tries      [opTries]int64     `json:"tries"`            // committed operations by the number of blocks they took, from 1
	Classes    [numClasses]int64  `json:"classes"`          // blocks, by how each attempt ended
	Figures    map[string]float64 `json:"figures"`          // every metric this slice can speak to
	Samples    map[string]int64   `json:"samples"`          // how many samples each rests on
	Shares     map[string]float64 `json:"shares,omitempty"` // traced: self time per span name ÷ block time
	P99Used    float64            `json:"p99_used"`         // the percentile block_p99_ms really is here
	TraceFile  string             `json:"trace_file,omitempty"`
	Warnings   []string           `json:"warnings,omitempty"`
	Violations []string           `json:"violations,omitempty"`
}

func (s *sliceResult) set(name string, value float64, n int64) {
	if _, ok := metricUnits[name]; !ok {
		panic("bench: metric " + name + " is not in the table")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	s.Figures[name], s.Samples[name] = value, n
}

// rec is the per-block record the measured window keeps.
type rec struct {
	dur, work int64
	class     failClass
}

// edge is a snapshot of every public counter at one edge of a measured
// interval.
type edge struct {
	t     int64
	cpu   time.Duration
	alloc uint64 // MemStats.TotalAlloc

	mallocs, pauseNs, heapInuse uint64
	page                        [5]int64 // copies, clones, allocs, recycled, compactions
	sel                         trace.SelSnapshot
	msg                         msg.Stats
	pool                        serve.PoolStats
	net                         trace.NetSnapshot
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) snapshot() edge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ed := edge{t: now(), cpu: processCPU(), alloc: ms.TotalAlloc}
	ed.mallocs, ed.pauseNs, ed.heapInuse = ms.Mallocs, ms.PauseTotalNs, ms.HeapInuse
	st := e.rt.Store()
	ed.page = [5]int64{st.Copies(), st.Clones(), st.Allocs(), st.Recycled(), st.Compactions()}
	ed.sel, ed.msg = e.rt.SelStats(), e.rt.MsgStats()
	if e.pool != nil {
		ed.pool = e.pool.Stats()
	}
	ed.net = e.net.Snapshot()
	return ed
}

// phase is one closed-loop interval on one set-up: every client runs
// blocks back to back until the time is up.
type phase struct {
	recs   []rec          // every block, ordered by client then time
	failed int64          // operations given up after opTries blocks
	tries  [opTries]int64 // committed operations by the number of blocks they took, from 1
	blocks []*blockRec    // traced phases only
	a, z   edge           // the counters before the first block and after the last
}

// harness runs the blocks of one slice.
type harness struct {
	w   *workload
	env *env
	seq []int64 // next block number per client; inputs depend only on (seed, client, number)
}

// tries is how often a block that does not commit is sent (see opTries);
// the warm-up and the abort stream send each block once.
func (h *harness) runPhase(seconds float64, traced bool, tries int, block func(*blockRec)) *phase {
	ph := &phase{a: h.env.snapshot()}
	deadline := ph.a.t + int64(seconds*float64(time.Second))
	perClient := make([]*phase, h.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < h.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := &phase{recs: make([]rec, 0, 1<<12)}
			for now() < deadline {
				seq := h.seq[c]
				h.seq[c]++
				for try := 1; ; try++ {
					b := &blockRec{client: c, seq: seq, try: try, traced: traced}
					block(b)
					r := rec{dur: b.dur(), class: b.class}
					if b.class == classCommitted {
						r.work = b.work()
					}
					mine.recs = append(mine.recs, r)
					if traced {
						mine.blocks = append(mine.blocks, b)
					}
					if b.class == classCommitted {
						mine.tries[try-1]++
						break
					}
					if try == tries {
						mine.failed++
						break
					}
					time.Sleep(min(retryPause<<(try-1), maxRetryPause))
				}
			}
			perClient[c] = mine
		}(c)
	}
	wg.Wait()
	ph.z = h.env.snapshot()
	for _, mine := range perClient {
		ph.recs = append(ph.recs, mine.recs...)
		ph.blocks = append(ph.blocks, mine.blocks...)
		ph.failed += mine.failed
		for k, n := range mine.tries {
			ph.tries[k] += n
		}
	}
	return ph
}

// endToEnd computes the end-to-end figures of one slice.
func (ph *phase) endToEnd(clients int, res *sliceResult) {
	var lat, ovh []float64
	var busy int64
	for _, r := range ph.recs {
		res.Classes[r.class]++
		if r.class != classCommitted {
			continue
		}
		busy += r.dur
		lat = append(lat, float64(r.dur)/1e6)
		ovh = append(ovh, float64(r.dur-r.work)/1e3)
	}
	attempted, committed := int64(len(ph.recs)), int64(len(lat))
	res.set("committed_frac", ratio(float64(committed), float64(attempted)), attempted)
	res.P99Used = 99
	if committed == 0 {
		return
	}
	sort.Float64s(lat)
	var p99 float64
	p99, res.P99Used = percentileFloor(lat, 99)
	res.set("blocks_per_s", blocksPerS(clients, len(lat), time.Duration(busy)), committed)
	res.set("block_p50_ms", percentile(lat, 50), committed)
	res.set("block_p99_ms", p99, committed)
	res.set("overhead_p50_us", median(ovh), committed)
	res.set("cpu_ms_per_block", ratio((ph.z.cpu-ph.a.cpu).Seconds()*1e3, float64(committed)), committed)
	res.set("bytes_per_block", ratio(float64(ph.z.alloc-ph.a.alloc), float64(attempted)), attempted)
}

// sliceSeqStride separates the block numbers of a run's slices, so no
// two slices get the same inputs.
const sliceSeqStride = 1 << 24

// runSlice measures one slice in this process: set-up, warm-up, the
// measured interval, tear-down. spawned is when the parent started the
// process, in Unix nanoseconds (0: count set-up from this package's
// initialisation, for a slice started by hand).
func runSlice(cfg runConfig, spec sliceSpec, slices int, spawned int64) (*sliceResult, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &sliceResult{Traced: spec.traced, Figures: map[string]float64{}, Samples: map[string]int64{}}
	viol := &violations{}
	h := &harness{w: w, seq: make([]int64, w.clients)}
	for c := range h.seq {
		h.seq[c] = int64(spec.index) * sliceSeqStride
	}
	goroutines := runtime.NumGoroutine()

	// Set-up runs from the parent's exec of this process to the first
	// block's reply: loading the program, the Go runtime's start and every
	// package's initialisation are part of it, and so is lazy work such as
	// dialling peers.
	if spawned == 0 {
		spawned = epoch.UnixNano()
	}
	e, err := w.setup(cfg.seed, viol)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	h.env = e
	first := &blockRec{client: 0, seq: h.seq[0]}
	h.seq[0]++
	e.block(first)
	res.set("setup_s", float64(time.Now().UnixNano()-spawned)/1e9, 1)

	h.runPhase(warmupSeconds, false, 1, e.block)
	// The measured interval starts from a collected heap. Where in the
	// collector's cycle a window begins decides how many collections fall
	// into it, and on fork_write, where each one empties the page pool and
	// only two or three fit a slice, that made its bytes per block vary
	// from slice to slice by a third (coefficient of variation 0.34); from
	// a collected heap it is 0.23.
	runtime.GC()
	ph := h.runPhase(cfg.seconds/float64(slices), spec.traced, opTries, e.block)
	if spec.traced && e.abortBlock != nil {
		// The stream with an aborting alternative: ungated, so that the
		// abort path and its lost replies keep a baseline.
		recs := h.runPhase(abortSeconds, false, 1, e.abortBlock).recs
		var classes [numClasses]int64
		for _, r := range recs {
			classes[r.class]++
		}
		n := int64(len(recs))
		res.set("stm.abort_committed_frac", ratio(float64(classes[classCommitted]), float64(n)), n)
		res.set("stm.abort_fail_deadline_frac", ratio(float64(classes[classDeadline]), float64(n)), n)
	}

	// Once the pool is drained and the runtime waited for, every closure
	// has left its last stamp and every world should be gone.
	e.stop()
	waited := make(chan struct{})
	go func() { e.rt.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		res.Warnings = append(res.Warnings, "runtime goroutines still running 5 s after the last block")
	}
	leakedWorlds := e.rt.LiveWorlds() - e.baseWorlds
	leakedGoroutines := 0
	for wait := 0; wait < 200; wait++ { // up to 2 s for transport goroutines to unwind
		if leakedGoroutines = runtime.NumGoroutine() - goroutines; leakedGoroutines <= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	ph.endToEnd(w.clients, res)
	res.OpsFailed, res.Tries = ph.failed, ph.tries
	if spec.traced {
		if err := h.layers(ph, res, spec.last, cfg.outDir); err != nil {
			return nil, err
		}
		res.set("core.worlds_leaked", float64(leakedWorlds), 1)
		res.set("runtime.goroutines_leaked", float64(max(leakedGoroutines, 0)), 1)
	}
	if leakedWorlds != 0 {
		// Not a violation: the seed commit leaves a world behind in about
		// one stm run in sixty, and a benchmark that fails that often is
		// of no use as a gate. core.worlds_leaked carries the count.
		res.Warnings = append(res.Warnings, fmt.Sprintf("%d worlds still live after the last block", leakedWorlds))
	}
	res.Violations = append(res.Violations, viol.list...)
	if extra := viol.count() - len(viol.list); extra > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("... and %d more", extra))
	}
	return res, nil
}

// result is what one run reports: its slices combined.
type result struct {
	Workload   string
	Traced     bool
	Attempted  int64          // operations
	Failed     int64          // operations given up after opTries blocks
	Blocks     int64          // blocks: every attempt of every operation
	Tries      [opTries]int64 // committed operations by the number of blocks they took, from 1
	Classes    [numClasses]int64
	Metrics    map[string]metricValue
	Shares     map[string]float64
	Violations []string
	Warnings   []string
	TraceFile  string
	Crashes    int // slice processes the program crashed or hung; each was started again
}

func (r *result) correct() bool { return len(r.Violations) == 0 }

// trimmedMean is how the slices' figures are combined: the mean after
// dropping the lowest and the highest eighth (one each of eight). It
// shrugs off a slice that another tenant of the box disturbed, like a
// median, but rests on six slices rather than on the middle two, and
// moves smoothly where a median jumps when slices come in two kinds.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	trim := len(xs) / 8
	xs = xs[trim : len(xs)-trim]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// combine folds the slices of a run into its result. Counts that are
// events, not rates, add up (leaks) or take the maximum (high-water
// marks); everything else is the trimmed mean over the slices that
// report it (a probe is reported by the one slice that ran it). crashes
// is how many slice processes had to be started again: a restarted slice
// runs every one of its operations anew, so a crash fails none of them
// and is counted on its own (runtime.crashes_per_run).
func combine(cfg runConfig, slices []*sliceResult, crashes int) *result {
	res := &result{Workload: cfg.workload, Traced: cfg.traced, Metrics: map[string]metricValue{}, Crashes: crashes}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	var refBps, tracedBps []float64
	p99Used := 99.0
	shares := map[string][]float64{}
	for _, s := range slices {
		res.Warnings = append(res.Warnings, s.Warnings...)
		res.Violations = append(res.Violations, s.Violations...)
		if s.TraceFile != "" {
			res.TraceFile = s.TraceFile
		}
		if bps, ok := s.Figures["blocks_per_s"]; ok && s.Traced {
			tracedBps = append(tracedBps, bps)
		} else if ok {
			refBps = append(refBps, bps)
		}
		if s.Traced != cfg.traced {
			continue // a reference slice of a traced run
		}
		res.Attempted += s.OpsFailed
		res.Failed += s.OpsFailed
		for k, n := range s.Tries {
			res.Tries[k] += n
			res.Attempted += n
		}
		for c, n := range s.Classes {
			res.Classes[c] += n
			res.Blocks += n
		}
		p99Used = math.Min(p99Used, s.P99Used)
		for name, v := range s.Shares {
			shares[name] = append(shares[name], v)
		}
	}
	for _, d := range defs {
		var xs []float64
		var n int64
		for _, s := range slices {
			if v, ok := s.Figures[d.name]; ok && s.Traced == cfg.traced {
				xs = append(xs, v)
				n += s.Samples[d.name]
			}
		}
		var v float64
		switch d.name {
		case "core.worlds_leaked", "runtime.goroutines_leaked":
			for _, x := range xs {
				v += x
			}
		case "serve.spec_high_water":
			for _, x := range xs {
				v = math.Max(v, x)
			}
		default:
			v = trimmedMean(xs)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit, N: n}
	}
	if cfg.traced {
		res.Metrics["runtime.crashes_per_run"] = metricValue{Value: float64(crashes), Unit: "count", N: int64(len(slices))}
		res.Metrics["trace.overhead_frac"] = metricValue{
			Value: 1 - ratio(trimmedMean(tracedBps), trimmedMean(refBps)), Unit: "ratio", N: res.Blocks,
		}
		res.Shares = map[string]float64{}
		for name, xs := range shares {
			res.Shares[name] = trimmedMean(xs)
		}
		if err := res.Metrics["core.reconcile_err_frac"]; err.N > 0 && err.Value > 0.10 {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"the benchmark's setup/body/select medians differ from core.Result's by %.0f%% of the block (core.reconcile_err_frac)", 100*err.Value))
		}
	}
	if p99Used < 99 && !cfg.traced {
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"block_p99_ms is the p%.1f in some slice: too few blocks there for %d samples beyond the p99", p99Used, tailSamples))
	}
	return res
}
