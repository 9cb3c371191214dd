// Seeded random runs of the observer–checker product, with two consumers.
//
// One walk serves both: from the initial product, repeatedly enumerate the
// enabled transitions, pick one with pick_walk_transition, and step the
// product through it, stopping at the first failing step.  The walk
// depends only on (protocol, observer config, length, seed) — never on
// engine, thread count, or wall clock.
//
//   * record_walk records the descriptor stream as a RunTrace, so the same
//     invocation always produces a byte-identical trace file: exactly what
//     a golden-trace regression (record once in CI, re-check with
//     tools/scv_check after every checker change) needs.  Violation traces,
//     by contrast, come from the model checker
//     (McOptions::record_counterexample), which records the depth-minimal
//     counterexample run it found.
//   * trace_test is the runtime testing mode (Section 5, last paragraph):
//     instead of model checking the full product, it monitors one long run
//     and flags the first violation of the observer's memory model.  This
//     is the Gibbons–Korach testing scenario the paper suggests for
//     implementations "too complex for formal verification": no
//     completeness guarantee, but it scales to parameters far beyond the
//     model checker.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "observer/observer.hpp"
#include "protocol/protocol.hpp"
#include "runlog/run_trace.hpp"

namespace scv {

struct RecordWalkOptions {
  std::size_t steps = 200;     ///< walk length (stops early in a dead end)
  std::uint64_t seed = 1;      ///< Xoshiro256 seed; same seed, same trace
  ObserverConfig observer{};
};

/// Walks `opt.steps` seeded-random transitions through a fresh product and
/// returns the recorded trace.  The verdict is Accepted for a clean walk;
/// if the run fails mid-walk (checker reject on a buggy protocol, observer
/// bound/tracking failure) the walk stops there and the trace carries the
/// failure verdict, its reason, and every *complete* step up to it.
[[nodiscard]] RunTrace record_walk(const Protocol& protocol,
                                   const RecordWalkOptions& opt = {});

enum class TraceVerdict : std::uint8_t {
  Passed,  ///< ran to the step limit with no violation
  Violation,
  BandwidthExceeded,
  TrackingInconsistent,
};

[[nodiscard]] std::string to_string(TraceVerdict v);

struct TraceTestOptions {
  std::uint64_t max_steps = 100'000;
  std::uint64_t seed = 1;
  ObserverConfig observer{};
};

/// How many of the last action names a failing trace_test reports
/// (TraceTestResult::tail).
inline constexpr std::size_t kTraceTailLength = 32;

struct TraceTestResult {
  TraceVerdict verdict = TraceVerdict::Passed;
  std::uint64_t steps = 0;       ///< transitions executed
  std::uint64_t memory_ops = 0;  ///< LD/ST operations among them
  /// Descriptor symbols checked.  Each step's emission reaches the checker
  /// as one batch, so a Violation counts the whole failing step's symbols,
  /// including any after the one the checker rejected.
  std::uint64_t symbols = 0;
  double seconds = 0.0;
  std::string reason;
  std::vector<std::string> tail;  ///< last actions before the verdict

  [[nodiscard]] std::string summary() const;
};

/// Monitors one seeded walk of up to `options.max_steps` transitions — the
/// walk record_walk records for the same seed, length and observer config.
/// `steps` counts a failing step too, so an observer failure reports one
/// step more than record_walk keeps.
[[nodiscard]] TraceTestResult trace_test(const Protocol& protocol,
                                         const TraceTestOptions& options = {});

}  // namespace scv
