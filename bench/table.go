package main

// The metric table: every name the benchmark prints. BENCHMARK.json at
// the repo root lists the same names (bench_test.go holds the two
// together) and fixes the bound of each end-to-end metric.

type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the system sees; the same eight names on
// every workload. A block is one alternative block from the client's
// call to its reply, on the client's clock.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"blocks_per_s", "1/s", "higher"},
	{"block_p50_ms", "ms", "lower"},
	{"block_p99_ms", "ms", "lower"},
	{"overhead_p50_us", "us", "lower"},
	{"cpu_ms_per_block", "ms", "lower"},
	{"bytes_per_block", "B", "lower"},
	{"committed_frac", "ratio", "higher"},
}

// perLayer metrics come from the traced run. The prefix is the module
// (layer) the number belongs to.
var perLayer = []metricDef{
	{"page.copies_per_block", "count", "lower"},
	{"page.clones_per_block", "count", "lower"},
	{"page.allocs_per_block", "count", "lower"},
	{"page.recycled_frac", "ratio", "higher"},
	{"page.compactions_per_kblock", "count", "lower"},
	{"mem.first_write_ns", "ns", "lower"},
	{"mem.rewrite_ns", "ns", "lower"},
	{"mem.read_ns", "ns", "lower"},
	{"mem.fork_ns", "ns", "lower"},
	{"mem.adopt_ns", "ns", "lower"},
	{"core.setup_us", "us", "lower"},
	{"core.select_us", "us", "lower"},
	{"core.cancel_lag_us", "us", "lower"},
	{"core.wasted_body_frac", "ratio", "lower"},
	{"core.resolutions_per_block", "count", "lower"},
	{"core.subscribers_per_resolution", "count", "lower"},
	{"core.eliminations_per_block", "count", "lower"},
	{"core.alias_walks_per_block", "count", "lower"},
	{"core.shard_contention_per_kblock", "count", "lower"},
	{"core.worlds_leaked", "count", "lower"},
	{"core.reconcile_err_frac", "ratio", "lower"},
	{"core.pi", "ratio", "higher"},
	{"runtime.goroutines_leaked", "count", "lower"},
	{"runtime.allocs_per_block", "count", "lower"},
	{"runtime.gc_pause_frac", "ratio", "lower"},
	{"runtime.heap_inuse_mb_end", "MB", "lower"},
	{"runtime.drift_frac", "ratio", "lower"},
	{"runtime.crashes_per_run", "count", "lower"},
	{"msg.sent_per_block", "count", "lower"},
	{"msg.accepted_per_block", "count", "lower"},
	{"msg.ignored_per_block", "count", "lower"},
	{"msg.splits_per_block", "count", "lower"},
	{"msg.accepted_frac", "ratio", "higher"},
	{"stm.seed_us", "us", "lower"},
	{"stm.read_us", "us", "lower"},
	{"stm.write_us", "us", "lower"},
	{"stm.guard_us", "us", "lower"},
	{"stm.readall_us", "us", "lower"},
	{"stm.close_us", "us", "lower"},
	{"stm.fail_deadline_frac", "ratio", "lower"},
	{"stm.fail_all_alts_frac", "ratio", "lower"},
	{"stm.fail_extract_frac", "ratio", "lower"},
	{"stm.abort_committed_frac", "ratio", "higher"},
	{"stm.abort_fail_deadline_frac", "ratio", "lower"},
	{"serve.submit_us", "us", "lower"},
	{"serve.queue_us", "us", "lower"},
	{"serve.finish_us", "us", "lower"},
	{"serve.waves_per_block", "count", "lower"},
	{"serve.lazy_waves_per_kblock", "count", "lower"},
	{"serve.alts_unspawned_per_block", "count", "higher"},
	{"serve.token_waits_per_kblock", "count", "lower"},
	{"serve.spec_high_water", "count", "lower"},
	{"serve.rejected_frac", "ratio", "lower"},
	{"arbiter.claim_ns", "ns", "lower"},
	{"consensus.claim_us", "us", "lower"},
	{"consensus.rounds_per_block", "count", "lower"},
	{"consensus.claims_per_round", "count", "higher"},
	{"transport.msgs_per_block", "count", "lower"},
	{"transport.bytes_per_block", "B", "lower"},
	{"transport.rtt_p50_us", "us", "lower"},
	{"transport.dropped_per_kblock", "count", "lower"},
	{"transport.retries_per_kblock", "count", "lower"},
	{"codec.frames_per_block", "count", "lower"},
	{"codec.fallback_frac", "ratio", "lower"},
	{"codec.encode_ballot_ns", "ns", "lower"},
	{"codec.decode_ballot_ns", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.block_self_frac", "ratio", "lower"},
}

var (
	metricUnits   = map[string]string{}
	endToEndNames = map[string]bool{}
)

func init() {
	for _, m := range endToEnd {
		metricUnits[m.name], endToEndNames[m.name] = m.unit, true
	}
	for _, m := range perLayer {
		metricUnits[m.name] = m.unit
	}
}
