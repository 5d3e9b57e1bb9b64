package main

import (
	"bufio"
	"net/http"

	"altrun/internal/obs"
)

// writeProm renders the daemon's metrics in Prometheus text format
// (0.0.4): the same counters the JSON view carries, flattened under the
// altrun_ prefix, with the flight recorder's histograms merged in. This
// is the /metrics?format=prom path, so a stock Prometheus scrape sees
// pool admission, selection, message, page, cluster, and obs series
// from one endpoint.
func (s *server) writeProm(w http.ResponseWriter, m metricsView) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	// Pool admission and speculation-budget counters.
	obs.WriteCounter(bw, "altrun_jobs_submitted_total", "Jobs accepted by the pool.", float64(m.Pool.JobsSubmitted))
	obs.WriteCounter(bw, "altrun_jobs_rejected_total", "Jobs rejected at admission.", float64(m.Pool.JobsRejected))
	obs.WriteCounter(bw, "altrun_jobs_completed_total", "Jobs that committed an alternative.", float64(m.Pool.JobsCompleted))
	obs.WriteCounter(bw, "altrun_jobs_failed_total", "Jobs whose alternatives all failed.", float64(m.Pool.JobsFailed))
	obs.WriteCounter(bw, "altrun_jobs_timed_out_total", "Jobs that hit their deadline.", float64(m.Pool.JobsTimedOut))
	obs.WriteCounter(bw, "altrun_jobs_cancelled_total", "Jobs abandoned by their caller.", float64(m.Pool.JobsCancelled))
	obs.WriteCounter(bw, "altrun_waves_total", "Alternative waves spawned.", float64(m.Pool.Waves))
	obs.WriteCounter(bw, "altrun_lazy_waves_total", "Waves after the first (budget-deferred alternatives).", float64(m.Pool.LazyWaves))
	obs.WriteCounter(bw, "altrun_alts_unspawned_total", "Alternatives never spawned because an earlier wave committed.", float64(m.Pool.AltsUnspawned))
	obs.WriteCounter(bw, "altrun_budget_waits_total", "Waves that blocked waiting for speculation tokens.", float64(m.Pool.TokenWaits))
	obs.WriteGauge(bw, "altrun_jobs_queued", "Jobs waiting for a worker.", float64(m.Pool.Queued))
	obs.WriteGauge(bw, "altrun_jobs_running", "Jobs executing now.", float64(m.Pool.Running))
	obs.WriteGauge(bw, "altrun_spec_tokens_in_use", "Speculation tokens held.", float64(m.Pool.TokensInUse))
	obs.WriteGauge(bw, "altrun_spec_high_water", "Max concurrent speculative worlds seen.", float64(m.Pool.SpecHighWater))

	// Adaptive speculation controller decisions and budget resizing.
	if m.Policy.Enabled {
		obs.WriteGauge(bw, "altrun_policy_enabled", "Adaptive speculation controller on.", 1)
	} else {
		obs.WriteGauge(bw, "altrun_policy_enabled", "Adaptive speculation controller on.", 0)
	}
	obs.WriteCounter(bw, "altrun_policy_decisions_total", "Adaptive controller decisions made.", float64(m.Policy.Decisions))
	obs.WriteCounter(bw, "altrun_policy_sequential_total", "Jobs run sequentially (predicted PI below threshold).", float64(m.Policy.SeqDecisions))
	obs.WriteCounter(bw, "altrun_policy_speculate_total", "Jobs run speculatively by decision.", float64(m.Policy.SpecDecisions))
	obs.WriteCounter(bw, "altrun_policy_explore_total", "Forced full-degree explore ticks.", float64(m.Policy.ExploreDecisions))
	obs.WriteCounter(bw, "altrun_policy_budget_grows_total", "Speculation budget grow steps.", float64(m.Policy.BudgetGrows))
	obs.WriteCounter(bw, "altrun_policy_budget_shrinks_total", "Speculation budget shrink steps.", float64(m.Policy.BudgetShrinks))
	obs.WriteCounter(bw, "altrun_history_evictions_total", "History (kind, alt) entries evicted by the caps.", float64(m.Policy.HistoryEvictions))
	obs.WriteGauge(bw, "altrun_policy_mean_degree", "Mean chosen speculation degree.", m.Policy.MeanDegree)
	obs.WriteGauge(bw, "altrun_spec_tokens_capacity", "Current speculation budget capacity.", float64(m.Policy.SpecTokens))
	obs.WriteGauge(bw, "altrun_history_kinds", "Job kinds retained in the history.", float64(m.Policy.HistoryKinds))

	// Selection (predicate-propagation) counters — satellite: these and
	// the trace drop counter were previously JSON-only.
	obs.WriteCounter(bw, "altrun_sel_resolutions_total", "Selection resolutions processed.", float64(m.Selection.Resolutions))
	obs.WriteCounter(bw, "altrun_sel_subscribers_visited_total", "Subscriber worlds visited during selection.", float64(m.Selection.SubscribersVisited))
	obs.WriteCounter(bw, "altrun_sel_eliminations_total", "Worlds eliminated by selection.", float64(m.Selection.Eliminations))
	obs.WriteCounter(bw, "altrun_sel_shard_contention_total", "Registry shard lock contention events.", float64(m.Selection.ShardContention))
	obs.WriteCounter(bw, "altrun_sel_alias_fast_path_total", "Alias resolutions served by the fast path.", float64(m.Selection.AliasFastPath))
	obs.WriteCounter(bw, "altrun_sel_alias_walks_total", "Alias chain walks.", float64(m.Selection.AliasWalks))

	// Message routing.
	obs.WriteCounter(bw, "altrun_msgs_sent_total", "Messages submitted to the router.", float64(m.Messages.Sent))
	obs.WriteCounter(bw, "altrun_msgs_accepted_total", "Messages accepted by a receiver.", float64(m.Messages.Accepted))
	obs.WriteCounter(bw, "altrun_msgs_ignored_total", "Messages ignored (eliminated or absent receiver).", float64(m.Messages.Ignored))
	obs.WriteCounter(bw, "altrun_msgs_splits_total", "Receiver splits on speculative delivery.", float64(m.Messages.Splits))

	// Memory and tracing.
	obs.WriteGauge(bw, "altrun_live_worlds", "Worlds alive in the registry.", float64(m.LiveWorlds))
	obs.WriteCounter(bw, "altrun_page_allocs_total", "Pages allocated.", float64(m.PageAllocs))
	obs.WriteCounter(bw, "altrun_page_copies_total", "COW page copies.", float64(m.PageCopies))
	obs.WriteCounter(bw, "altrun_trace_dropped_total", "Trace events dropped by the ring buffer.", float64(m.TraceDropped))

	// Peer group, when clustered.
	if c := m.Cluster; c != nil {
		obs.WriteCounter(bw, "altrun_cluster_ballots_total", "Consensus ballots run.", float64(c.Ballots))
		obs.WriteCounter(bw, "altrun_cluster_commits_total", "Consensus commits won.", float64(c.ConsensusCommits))
		obs.WriteCounter(bw, "altrun_cluster_rforks_in_total", "Jobs received via rfork.", float64(c.RForksIn))
		obs.WriteCounter(bw, "altrun_cluster_rforks_out_total", "Jobs shipped via rfork.", float64(c.RForksOut))
		obs.WriteCounter(bw, "altrun_net_msgs_sent_total", "Transport messages sent.", float64(c.Net.MsgsSent))
		obs.WriteCounter(bw, "altrun_net_msgs_recv_total", "Transport messages received.", float64(c.Net.MsgsRecv))
		obs.WriteCounter(bw, "altrun_net_bytes_sent_total", "Transport bytes sent.", float64(c.Net.BytesSent))
		obs.WriteCounter(bw, "altrun_net_bytes_recv_total", "Transport bytes received.", float64(c.Net.BytesRecv))
		obs.WriteCounter(bw, "altrun_net_dropped_total", "Transport messages dropped.", float64(c.Net.Dropped))
		obs.WriteCounter(bw, "altrun_net_retries_total", "Transport reconnect attempts.", float64(c.Net.Retries))
		obs.WriteCounter(bw, "altrun_net_rtt_dropped_total", "RTT samples discarded for straddling a reconnect.", float64(c.Net.RTTDropped))
		obs.WriteGauge(bw, "altrun_net_rtt_ewma_ms", "Smoothed consensus round-trip time.", c.Net.RTTEWMAMS)
		obs.WriteGauge(bw, "altrun_net_rtt_p99_ms", "99th-percentile consensus round-trip time.", c.Net.RTTP99MS)
		obs.WriteCounter(bw, "altrun_ballot_rounds_total", "Batched quorum rounds started by the coalescer.", float64(c.Net.BallotRounds))
		obs.WriteCounter(bw, "altrun_ballots_coalesced_total", "Claims carried inside batched quorum rounds.", float64(c.Net.BallotsCoalesced))
		obs.WriteCounter(bw, "altrun_claims_followed_total", "Claims answered from their key's leader or the decided-key cache, without a round.", float64(c.Net.ClaimsFollowed))
		obs.WriteCounter(bw, "altrun_codec_frames_total", "Frames encoded on the binary fast path.", float64(c.Net.CodecFrames))
		obs.WriteCounter(bw, "altrun_codec_fallbacks_total", "Frames that fell back to gob encoding.", float64(c.Net.CodecFallbacks))
		obs.WriteCounter(bw, "altrun_rfork_full_ships_total", "Full checkpoint images shipped.", float64(c.Net.FullShips))
		obs.WriteCounter(bw, "altrun_rfork_delta_ships_total", "Delta checkpoint images shipped.", float64(c.Net.DeltaShips))
		obs.WriteCounter(bw, "altrun_rfork_full_ship_bytes_total", "Bytes shipped as full images.", float64(c.Net.FullShipBytes))
		obs.WriteCounter(bw, "altrun_rfork_delta_ship_bytes_total", "Bytes shipped as deltas.", float64(c.Net.DeltaShipBytes))
		obs.WriteCounter(bw, "altrun_rfork_ship_misses_total", "Deltas NAKed for a missing or stale base.", float64(c.Net.ShipMisses))
		obs.WriteGauge(bw, "altrun_rfork_cached_bases", "Delta-ship base images cached on this node.", float64(c.RForkBases))
		obs.WriteCounter(bw, "altrun_rfork_fallbacks_total", "RForks run locally because no ring peer had window.", float64(c.RForkFallbacks))

		// SWIM membership: view composition, ring, and gossip traffic.
		obs.WriteGauge(bw, "altrun_member_epoch", "Membership view epoch.", float64(c.Epoch))
		obs.WriteGauge(bw, "altrun_members_alive", "Members alive in the local view.", float64(c.MembersAlive))
		obs.WriteGauge(bw, "altrun_members_suspect", "Members under suspicion in the local view.", float64(c.MembersSuspect))
		obs.WriteGauge(bw, "altrun_members_dead", "Members declared dead in the local view.", float64(c.MembersDead))
		obs.WriteGauge(bw, "altrun_ring_nodes", "Nodes on the consistent-hash placement ring.", float64(c.RingNodes))
		obs.WriteCounter(bw, "altrun_gossip_probes_sent_total", "Direct membership pings originated.", float64(c.Gossip.ProbesSent))
		obs.WriteCounter(bw, "altrun_gossip_acks_received_total", "Acks matching an outstanding probe.", float64(c.Gossip.AcksReceived))
		obs.WriteCounter(bw, "altrun_gossip_indirect_probes_total", "Ping-req fan-outs after a direct miss.", float64(c.Gossip.IndirectProbes))
		obs.WriteCounter(bw, "altrun_gossip_suspicions_total", "Members marked suspect locally.", float64(c.Gossip.Suspicions))
		obs.WriteCounter(bw, "altrun_gossip_refutations_total", "Own-suspicion refutations (incarnation bumps).", float64(c.Gossip.Refutations))
		obs.WriteCounter(bw, "altrun_gossip_deaths_total", "Suspicion timeouts declared dead.", float64(c.Gossip.Deaths))
		obs.WriteCounter(bw, "altrun_gossip_joins_total", "New members admitted to the view.", float64(c.Gossip.Joins))
		obs.WriteCounter(bw, "altrun_gossip_leaves_total", "Graceful departures observed.", float64(c.Gossip.Leaves))
		obs.WriteCounter(bw, "altrun_gossip_epoch_changes_total", "View epoch bumps (local and adopted).", float64(c.Gossip.EpochChanges))
		obs.WriteCounter(bw, "altrun_gossip_msgs_total", "Membership messages sent.", float64(c.Gossip.GossipMsgs))
		obs.WriteCounter(bw, "altrun_gossip_bytes_total", "Estimated wire bytes of membership traffic.", float64(c.Gossip.GossipBytes))
	}

	// Flight recorder aggregates and histograms (no-op when disabled).
	s.rec.WritePrometheus(bw)
}
