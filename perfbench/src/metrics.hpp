// The benchmark's metric catalogue: every name the binary can report, with
// its unit.  BENCHMARK.json lists the same names (end_to_end and per_layer);
// perfbench/test_perfbench.py checks the two agree.  README.md says what
// each metric measures on each workload.
#pragma once

#include <string_view>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Untraced runs (--trace 0).  Every workload reports every one of these.
inline constexpr MetricDef kEndToEnd[] = {
    {"time_to_verdict_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"symbols_per_s", "symbols/s"},
    {"stream_verdict_p50_ms", "ms"},
};

/// Traced runs (--trace 1).  A layer a workload does not exercise reads 0.
inline constexpr MetricDef kPerLayer[] = {
    // src/mc — the explicit-state engine (McResult, McPhaseTimes).
    {"mc.traced_time_to_verdict_s", "s"},
    {"mc.traced_setup_s", "s"},
    {"mc.explore_s", "s"},
    {"mc.rerun_s", "s"},
    {"mc.expand_cpu_s", "s"},
    {"mc.canonicalize_cpu_s", "s"},
    {"mc.dedup_cpu_s", "s"},
    {"mc.materialize_cpu_s", "s"},
    {"mc.unphased_cpu_s", "s"},
    {"mc.expand_residual_cpu_s", "s"},
    {"mc.states", "count"},
    {"mc.transitions", "count"},
    {"mc.orbit_reduction", "ratio"},
    {"mc.por_ample_ratio", "ratio"},
    {"mc.por_deferred_transitions", "count"},
    {"mc.dup_cache_hit_ratio", "ratio"},
    {"mc.frontier_mb", "MB"},
    // src/util — the visited-state store.
    {"util.store_mb", "MB"},
    {"util.store_load_factor", "ratio"},
    // src/protocol — through the TimedProtocol decorator.
    {"protocol.enumerate_s", "s"},
    {"protocol.enumerate_calls", "count"},
    {"protocol.apply_s", "s"},
    {"protocol.apply_calls", "count"},
    {"protocol.could_load_bottom_s", "s"},
    {"protocol.symmetry_hooks_s", "s"},
    {"protocol.por_hooks_s", "s"},
    // src/analysis — the calls model_check's set-up makes, timed directly.
    {"analysis.lint_sampled_s", "s"},
    {"analysis.symmetry_check_s", "s"},
    {"analysis.skeleton_s", "s"},
    {"analysis.skeleton_states", "count"},
    // src/checker — direct ScChecker::feed_batch over the stream input.
    {"checker.feed_batch_s", "s"},
    {"checker.ns_per_symbol", "ns"},
    // src/stream — the service, seen from its generator and poll mode.
    {"stream.traced_batch_s", "s"},
    {"stream.push_s", "s"},
    {"stream.report_poll_s", "s"},
    {"stream.generator_wait_s", "s"},
    {"stream.backpressure_stalls", "count"},
    {"stream.backlog_events_max", "count"},
    {"stream.generator_late_ms", "ms"},
    {"stream.poll_drain_s", "s"},
    {"stream.transport_s", "s"},
    {"stream.quarantined", "count"},
    {"stream.discarded_events", "count"},
    {"stream.quarantine_verdict_p50_ms", "ms"},
    {"stream.verdict_p99_ms", "ms"},
    // src/runlog — evidence round trips.
    {"runlog.excerpt_recheck_s", "s"},
    {"runlog.excerpt_bytes", "bytes"},
    {"runlog.cex_roundtrip_s", "s"},
    // Cost of the traced run itself: traced minus untraced, same process.
    {"trace.overhead_time_to_verdict_s", "s"},
    {"trace.overhead_symbols_per_s", "symbols/s"},
};

}  // namespace perfbench
