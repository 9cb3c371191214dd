// The model-checking workloads: mc_directory_p3 (verification with every
// reduction engaged) and mc_hunt_msi_buggy (bug hunting: violation, the
// discarded parallel pass, the deterministic re-run and counterexample
// export).  Both configurations are deterministic; the seed is ignored.
//
// Untraced run: full calls repeat until --seconds have elapsed, each after
// one set-up call (the identical call with max_depth = 0: lint precheck,
// symmetry/POR self-checks, store allocation, worker spawn).
// `time_to_verdict_s` and `setup_s` are the median wall times of the two;
// `peak_rss_mb` is the median over full calls of the process's peak
// resident set during the call.
//
// Traced run: the same calls again, alternating plain and TimedProtocol-
// decorated ones, plus direct timing of the analysis calls set-up makes.
// Every per-layer time comes from the decorated call with the median wall
// time, so the identities hold exactly for that call:
//   traced_setup + explore + rerun          = traced_time_to_verdict
//   (Σ phases + unphased) / pass threads    = explore
//   protocol (expand share) + residual      = expand
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "common.hpp"
#include "mc/model_checker.hpp"
#include "protocol/directory.hpp"
#include "protocol/msi_bus.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/trace_stream.hpp"
#include "timed_protocol.hpp"

namespace perfbench {
namespace {

using scv::McOptions;
using scv::McResult;
using scv::McVerdict;

constexpr double kMiB = 1024.0 * 1024.0;

struct McSpec {
  std::unique_ptr<scv::Protocol> protocol;
  McOptions options;
  McVerdict verdict = McVerdict::Verified;
  std::size_t states = 0;       ///< exact expectation; 0 = not checked
  std::size_t transitions = 0;  ///< exact expectation; 0 = not checked
  std::size_t cex_steps = 0;    ///< exact expectation; 0 = no counterexample
  /// Descriptor symbols the seed's call checks (McOptions::symbol_stats),
  /// frozen: symbols_per_s = reference_symbols / time_to_verdict_s is
  /// throughput at fixed work, so a reduction that checks fewer symbols
  /// reads as faster, never as slower.
  double reference_symbols = 0.0;
  /// Time the exhaustive skeleton build.  Only where it is cheap: msi_bus
  /// p4's skeleton hits the 2^21-state cap after ~10 s.
  bool time_skeleton = false;
};

McSpec make_spec(const RunConfig& cfg) {
  McSpec s;
  s.options.threads = 2;
  if (cfg.workload == "mc_directory_p3") {
    s.protocol = std::make_unique<scv::DirectoryProtocol>(3, 1, 1);
    s.options.max_depth = cfg.small ? 12 : 22;
    s.verdict = McVerdict::StateLimit;
    s.states = cfg.small ? 1'905 : 669'895;
    s.transitions = cfg.small ? 2'995 : 1'258'386;
    s.reference_symbols = cfg.small ? 2'582.0 : 1'302'133.0;
    s.time_skeleton = true;
  } else {
    s.protocol = std::make_unique<scv::MsiBus>(cfg.small ? 2 : 4, 2, 2,
                                               /*lost_invalidation=*/true);
    s.options.record_counterexample = true;
    s.verdict = McVerdict::Violation;
    s.cex_steps = 7;
    s.reference_symbols = cfg.small ? 83'458.0 : 718'169.0;
  }
  if (cfg.wrong_expectation) {
    if (s.cex_steps != 0) {
      ++s.cex_steps;
    } else {
      ++s.states;
    }
  }
  return s;
}

std::vector<std::uint8_t> trace_bytes(const scv::RunTrace& t) {
  scv::ByteWriter w;
  scv::serialize_run_trace(t, w);
  return std::move(w).take();
}

/// Counterexample export round trip: serialize, write, stream it back
/// through TraceStreamReader and re-check with check_trace_stream.  Returns
/// an empty string when the stream re-rejects, else what went wrong.
std::string cex_roundtrip(const scv::RunTrace& cex, const std::string& path) {
  std::string error;
  if (!scv::write_run_trace(path, cex, error)) return "write: " + error;
  std::string problem;
  {
    scv::TraceStreamReader reader(path);
    if (!reader.ok()) {
      problem = "read: " + reader.error();
    } else {
      const scv::TraceCheckResult r = scv::check_trace_stream(reader);
      if (!r.ok) {
        problem = "check_trace_stream: " + r.error;
      } else if (r.accepted) {
        problem = "exported counterexample does not re-reject";
      }
    }
  }
  std::remove(path.c_str());
  return problem;
}

/// Empty when `r` meets the workload's expectations; else the mismatch.
std::string validate(const McSpec& s, const McResult& r,
                     const std::string& cex_path) {
  if (r.verdict != s.verdict) {
    return "verdict " + scv::to_string(r.verdict) + ", expected " +
           scv::to_string(s.verdict) + " (" + r.reason + ")";
  }
  if (s.states != 0 &&
      (r.states != s.states || r.transitions != s.transitions)) {
    return "counts " + std::to_string(r.states) + "/" +
           std::to_string(r.transitions) + ", expected " +
           std::to_string(s.states) + "/" + std::to_string(s.transitions);
  }
  if (s.cex_steps != 0) {
    if (r.counterexample.size() != s.cex_steps) {
      return "counterexample length " +
             std::to_string(r.counterexample.size()) + ", expected " +
             std::to_string(s.cex_steps);
    }
    if (!r.counterexample_trace.has_value()) {
      return "no exported counterexample trace";
    }
    return cex_roundtrip(*r.counterexample_trace, cex_path);
  }
  return {};
}

struct Call {
  McResult result;
  double wall = 0.0;
  ProtocolTally main_tally;   ///< decorated calls only
  ProtocolTally other_tally;  ///< decorated calls only
};

Call timed_call(const scv::Protocol& p, const McOptions& opt) {
  Call c;
  const double t0 = now_s();
  c.result = scv::model_check(p, opt);
  c.wall = now_s() - t0;
  release_free_memory();
  return c;
}

Call decorated_call(TimedProtocol& tp, const McOptions& opt) {
  tp.reset();
  Call c = timed_call(tp, opt);
  c.main_tally = tp.main_tally();
  c.other_tally = tp.other_tally();
  return c;
}

std::vector<double> walls(const std::vector<Call>& calls) {
  std::vector<double> w;
  w.reserve(calls.size());
  for (const Call& c : calls) w.push_back(c.wall);
  return w;
}

template <typename Fn>
double median_time(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

/// Did the reported exploration pass run on the model checker's worker
/// pool?  A failing multi-thread run discards its parallel pass and reports
/// the single-worker re-run, which runs inline on the calling thread.
bool pass_on_pool(const McOptions& opt, const McResult& r) {
  const bool failure = r.verdict != McVerdict::Verified &&
                       r.verdict != McVerdict::StateLimit;
  return opt.threads > 1 && !failure;
}

void report_traced(const McSpec& spec, const Call& setup, const Call& c,
                   Outcome& out) {
  const McResult& r = c.result;
  const scv::McPhaseTimes& ph = r.phase_times;
  const bool on_pool = pass_on_pool(spec.options, r);
  const double pass_threads =
      on_pool ? static_cast<double>(spec.options.threads) : 1.0;
  const double phases = ph.expand + ph.canonicalize + ph.dedup + ph.materialize;

  // Protocol time of the reported pass.  On the pool it is the workers'
  // tally; inline it is the calling thread's tally minus what the set-up
  // checks (the max_depth = 0 call) spent there.
  ProtocolTally proto;
  if (on_pool) {
    proto = c.other_tally;
  } else {
    proto = c.main_tally;
    proto -= setup.main_tally;
  }

  out.set("mc.traced_time_to_verdict_s", c.wall);
  out.set("mc.traced_setup_s", setup.wall);
  out.set("mc.explore_s", r.seconds);
  out.set("mc.rerun_s", c.wall - setup.wall - r.seconds);
  out.set("mc.expand_cpu_s", ph.expand);
  out.set("mc.canonicalize_cpu_s", ph.canonicalize);
  out.set("mc.dedup_cpu_s", ph.dedup);
  out.set("mc.materialize_cpu_s", ph.materialize);
  out.set("mc.unphased_cpu_s", pass_threads * r.seconds - phases);
  out.set("mc.expand_residual_cpu_s", ph.expand - proto.expand_s());
  out.set("mc.states", static_cast<double>(r.states));
  out.set("mc.transitions", static_cast<double>(r.transitions));
  out.set("mc.orbit_reduction", r.orbit_reduction);
  const double por_states =
      static_cast<double>(r.por_ample_states + r.por_full_states);
  out.set("mc.por_ample_ratio",
          por_states > 0 ? static_cast<double>(r.por_ample_states) / por_states
                         : 0.0);
  out.set("mc.por_deferred_transitions",
          static_cast<double>(r.por_deferred_transitions));
  out.set("mc.dup_cache_hit_ratio",
          r.dup_cache_lookups > 0 ? static_cast<double>(r.dup_cache_hits) /
                                        static_cast<double>(r.dup_cache_lookups)
                                  : 0.0);
  out.set("mc.frontier_mb", static_cast<double>(r.frontier_bytes) / kMiB);
  out.set("util.store_mb", static_cast<double>(r.store_bytes) / kMiB);
  out.set("util.store_load_factor", r.store_load_factor);
  out.set("protocol.enumerate_s", proto.enumerate_s);
  out.set("protocol.enumerate_calls",
          static_cast<double>(proto.enumerate_calls));
  out.set("protocol.apply_s", proto.apply_s);
  out.set("protocol.apply_calls", static_cast<double>(proto.apply_calls));
  out.set("protocol.could_load_bottom_s", proto.could_load_bottom_s);
  out.set("protocol.symmetry_hooks_s", proto.symmetry_hooks_s);
  out.set("protocol.por_hooks_s", proto.por_hooks_s);
}

bool same_exploration(const McResult& a, const McResult& b) {
  if (a.verdict != b.verdict || a.states != b.states ||
      a.transitions != b.transitions) {
    return false;
  }
  if (a.counterexample_trace.has_value() != b.counterexample_trace.has_value())
    return false;
  return !a.counterexample_trace.has_value() ||
         trace_bytes(*a.counterexample_trace) ==
             trace_bytes(*b.counterexample_trace);
}

}  // namespace

void run_mc_workload(const RunConfig& cfg, Outcome& out) {
  const double start = now_s();
  const double deadline = start + cfg.seconds;
  const McSpec spec = make_spec(cfg);
  const scv::Protocol& proto = *spec.protocol;
  const std::string cex_path = cfg.scratch_dir + "/perfbench_cex.trace";
  const std::size_t min_calls = cfg.small ? 1 : 3;

  McOptions setup_opt = spec.options;
  setup_opt.max_depth = 0;
  const auto check_setup = [&](const Call& c) {
    out.check(c.result.verdict == McVerdict::StateLimit && c.result.depth == 0,
              "set-up call: " + scv::to_string(c.result.verdict) + " " +
                  c.result.reason);
  };
  const auto check_call = [&](const Call& c, const char* what) {
    const std::string problem = validate(spec, c.result, cex_path);
    out.check(problem.empty(), std::string(what) + ": " + problem);
  };

  // One discarded call first: the process's first call pays one-off costs
  // (page faults, cold caches) that later calls, like a long-lived user
  // process, do not.
  check_setup(timed_call(proto, setup_opt));

  // Set-up samples are interleaved with the full calls so that both see
  // the same stretches of the run (host speed drifts over seconds).
  if (!cfg.trace) {
    std::vector<Call> setups;
    std::vector<Call> calls;
    std::vector<double> rss;
    while (calls.size() < min_calls || now_s() < deadline) {
      setups.push_back(timed_call(proto, setup_opt));
      check_setup(setups.back());
      reset_peak_rss();
      calls.push_back(timed_call(proto, spec.options));
      rss.push_back(peak_rss_mb());
      check_call(calls.back(), "model_check");
    }
    const double ttv = median(walls(calls));
    out.set("time_to_verdict_s", ttv);
    out.set("peak_rss_mb", median(std::move(rss)));
    out.set("setup_s", median(walls(setups)));
    out.set("symbols_per_s", spec.reference_symbols / ttv);
    out.set("stream_verdict_p50_ms", 1e3 * ttv);
    return;
  }

  // --- Traced run -------------------------------------------------------
  // src/analysis: the calls model_check's set-up makes, on the plain
  // protocol, plus the exhaustive skeleton a skeleton-fed set-up would add.
  scv::LintOptions lopt;
  lopt.mode = scv::LintOptions::Mode::Sampled;
  lopt.observer = spec.options.observer;
  out.set("analysis.lint_sampled_s", median_time(3, [&] {
            const scv::LintReport rep = scv::lint_protocol(proto, lopt);
            out.check(!rep.has_errors(), "lint: " + rep.summary());
          }));
  out.set("analysis.symmetry_check_s", median_time(3, [&] {
            const scv::SymmetryCheckResult sym =
                scv::check_processor_symmetry(proto);
            out.check(sym.ok, "symmetry check: " + sym.detail);
          }));
  if (spec.time_skeleton) {
    std::size_t skeleton_states = 0;
    out.set("analysis.skeleton_s", median_time(3, [&] {
              skeleton_states =
                  scv::analysis::build_skeleton(proto).num_states();
            }));
    out.set("analysis.skeleton_states", static_cast<double>(skeleton_states));
  }

  TimedProtocol timed(proto);
  std::vector<Call> setups;
  std::vector<Call> plain;
  std::vector<Call> traced;
  while (traced.size() < min_calls || now_s() < deadline) {
    setups.push_back(decorated_call(timed, setup_opt));
    check_setup(setups.back());
    plain.push_back(timed_call(proto, spec.options));
    check_call(plain.back(), "model_check");
    traced.push_back(decorated_call(timed, spec.options));
    check_call(traced.back(), "decorated model_check");
    out.check(same_exploration(plain.back().result, traced.back().result),
              "decorated run differs from the plain one");
  }

  const Call& setup = setups[median_index(walls(setups))];
  const Call& call = traced[median_index(walls(traced))];
  report_traced(spec, setup, call, out);

  if (call.result.counterexample_trace.has_value()) {
    std::string problem;
    out.set("runlog.cex_roundtrip_s", median_time(3, [&] {
              problem = cex_roundtrip(*call.result.counterexample_trace,
                                      cex_path);
            }));
    out.check(problem.empty(), "counterexample round trip: " + problem);
  }

  const double plain_ttv = median(walls(plain));
  const double traced_ttv = median(walls(traced));
  out.set("trace.overhead_time_to_verdict_s", traced_ttv - plain_ttv);
  out.set("trace.overhead_symbols_per_s",
          spec.reference_symbols / traced_ttv -
              spec.reference_symbols / plain_ttv);
}

}  // namespace perfbench
