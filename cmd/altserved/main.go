// Command altserved is the admission-controlled alternative-block
// daemon: an HTTP front end over serve.Pool that accepts recovery-block
// and Prolog-query jobs, runs them under the speculation budget, and
// drains gracefully on SIGTERM.
//
//	altserved -addr :8080 -workers 8 -spec-tokens 16
//
//	curl -s localhost:8080/jobs?wait=1 -d '{"kind":"sort","input":[5,3,1]}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"altrun/internal/core"
	"altrun/internal/ids"
	"altrun/internal/obs"
	"altrun/internal/serve"
	"altrun/internal/trace"
)

// traceWriter returns an OnComplete hook that dumps each sampled
// block's Chrome trace into dir as block-<id>.trace.json (Perfetto /
// chrome://tracing loadable). Failures are logged, never fatal — the
// recorder must not take the daemon down.
func traceWriter(dir string) func(*obs.Timeline) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("obs: cannot create trace dir %s: %v", dir, err)
		return nil
	}
	return func(tl *obs.Timeline) {
		raw, err := tl.ChromeTrace()
		if err != nil {
			log.Printf("obs: trace for block %d: %v", tl.ID, err)
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("block-%d.trace.json", tl.ID))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			log.Printf("obs: write %s: %v", path, err)
		}
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent jobs (0 = max(4, GOMAXPROCS))")
		specTokens   = flag.Int("spec-tokens", 0, "speculation budget: max live speculative worlds (0 = 2×workers)")
		maxDegree    = flag.Int("max-degree", 4, "max alternatives raced at once per job")
		queueDepth   = flag.Int("queue", 256, "admission queue depth")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-job deadline (0 = none)")
		traceCap     = flag.Int("trace-cap", trace.DefaultLogCap, "trace ring-buffer capacity (events)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
		node         = flag.Int("node", 0, "this daemon's node id in the peer group (0 = single-node)")
		peers        = flag.String("peers", "", `static peer group as "1=host:port,2=host:port,..." (must include this node)`)
		join         = flag.String("join", "", `membership seeds as "1=host:port,..." — join the group dynamically instead of listing every peer`)
		clusterAddr  = flag.String("cluster-addr", "127.0.0.1:0", "cluster transport listen address (used with -join; -peers carries its own)")
		gossipIval   = flag.Duration("gossip-interval", 250*time.Millisecond, "membership probe/gossip period")
		suspMult     = flag.Int("suspicion-mult", 5, "suspicion timeout, as a multiple of the gossip interval")
		obsRate      = flag.Int("obs-rate", obs.DefaultSampleRate, "flight recorder sampling: record 1 in N blocks (0 = off)")
		obsKeep      = flag.Int("obs-keep", obs.DefaultKeep, "flight recorder retention: recent timelines kept for /debug/blocks")
		obsDir       = flag.String("obs-dir", "", "write each sampled block's Chrome trace JSON into this directory")

		adapt         = flag.Bool("adapt", false, "adaptive speculation controller: per-job sequential/speculate decisions, degree, bandit ordering, budget resizing")
		adaptPI       = flag.Float64("adapt-pi-threshold", 1.0, "predicted-PI floor below which a job runs sequentially")
		adaptUCB      = flag.Float64("adapt-ucb", 0.5, "bandit exploration constant for spawn ordering (0 = pure exploitation)")
		adaptMinWins  = flag.Int64("adapt-min-wins", 5, "committed blocks a kind needs before sequential execution is allowed")
		adaptExplore  = flag.Int("adapt-explore-every", 64, "force full-degree speculation every Nth decision per kind (0 = never)")
		adaptResize   = flag.Duration("adapt-resize-interval", 2*time.Second, "how often the speculation token budget is reconsidered (0 = fixed)")
		adaptMaxToken = flag.Int("adapt-max-tokens", 0, "upper bound for budget resizing (0 = 4×spec-tokens)")
	)
	flag.Parse()
	var cluster *clusterState
	if *peers != "" && *join != "" {
		fmt.Fprintln(os.Stderr, "altserved: -peers and -join are mutually exclusive (static group vs dynamic admission)")
		os.Exit(1)
	}
	if *peers != "" || *join != "" {
		if *node <= 0 {
			fmt.Fprintln(os.Stderr, "altserved: -peers/-join require -node")
			os.Exit(1)
		}
		opts := clusterOptions{
			node:           ids.NodeID(*node),
			listen:         *clusterAddr,
			gossipInterval: *gossipIval,
			suspicionMult:  *suspMult,
		}
		var err error
		if *peers != "" {
			if opts.peers, err = parsePeers(*peers); err != nil {
				fmt.Fprintln(os.Stderr, "altserved:", err)
				os.Exit(1)
			}
		} else {
			if opts.join, err = parsePeers(*join); err != nil {
				fmt.Fprintln(os.Stderr, "altserved:", err)
				os.Exit(1)
			}
			if _, self := opts.join[opts.node]; self {
				fmt.Fprintln(os.Stderr, "altserved: -join seeds must not include this node")
				os.Exit(1)
			}
		}
		cluster, err = newClusterState(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "altserved:", err)
			os.Exit(1)
		}
	}
	var rec *obs.Recorder
	if *obsRate > 0 {
		rcfg := obs.Config{SampleRate: *obsRate, Keep: *obsKeep}
		if *obsDir != "" {
			rcfg.OnComplete = traceWriter(*obsDir)
		}
		rec = obs.NewRecorder(rcfg)
	}
	cfg := serve.Config{
		Workers:         *workers,
		SpecTokens:      *specTokens,
		MaxDegree:       *maxDegree,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		Runtime:         core.New(core.Config{Trace: true, TraceCap: *traceCap}),
		Recorder:        rec,
		Adapt: serve.AdaptConfig{
			Enabled:        *adapt,
			PIThreshold:    *adaptPI,
			UCBExploration: *adaptUCB,
			MinKindWins:    *adaptMinWins,
			ExploreEvery:   *adaptExplore,
			ResizeInterval: *adaptResize,
			MaxTokens:      *adaptMaxToken,
		},
	}
	if cluster != nil {
		cfg.NewClaim = cluster.newClaim
	}
	if err := run(*addr, cfg, cluster, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "altserved:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config, cluster *clusterState, drainTimeout time.Duration) error {
	pool, err := serve.NewPool(cfg)
	if err != nil {
		return err
	}
	if cluster != nil {
		cluster.start(pool)
		defer cluster.close()
		log.Printf("altserved node %d in peer group %v (cluster addr %s, quorum %d)",
			cluster.node, cluster.members, cluster.tcp.Addr(), len(cluster.members)/2+1)
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: newHandler(pool, cluster, cfg.Recorder),
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("altserved listening on %s (workers=%d spec-tokens=%d max-degree=%d queue=%d)",
			addr, pool.Stats().Workers, pool.Stats().SpecTokens, pool.Stats().MaxDegree, pool.Stats().QueueDepth)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, then let queued and
	// in-flight jobs finish (bounded by drainTimeout).
	log.Printf("altserved draining (timeout %v)", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := pool.Drain(shutdownCtx); err != nil {
		// Out of patience: cancel what's left so worlds are freed.
		log.Printf("drain incomplete (%v); cancelling remaining jobs", err)
		killCtx, kcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer kcancel()
		return pool.Close(killCtx)
	}
	st := pool.Stats()
	log.Printf("altserved drained: %d completed, %d failed, %d timed out, %d cancelled (spec high-water %d/%d)",
		st.JobsCompleted, st.JobsFailed, st.JobsTimedOut, st.JobsCancelled, st.SpecHighWater, st.SpecTokens)
	return nil
}
