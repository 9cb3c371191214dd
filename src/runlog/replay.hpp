// Offline re-verification of a recorded run trace.
//
// check_trace rebuilds the Theorem 3.1 checker from the trace header and
// feeds it the recorded descriptor stream — no protocol, no observer, no
// state-space exploration.  This is the differential-testing half of the
// run-trace artifact: a golden trace recorded once is re-checked after every
// checker change, and an exported counterexample is independent evidence a
// reported violation is real.
#pragma once

#include <cstdint>
#include <string>

#include "runlog/run_trace.hpp"
#include "runlog/sinks.hpp"
#include "runlog/trace_stream.hpp"

namespace scv {

struct TraceCheckResult {
  /// False only for traces that cannot be checked at all (an out-of-range
  /// checker config in the header); `error` says why.  A checker *reject* is
  /// a successful check with accepted == false.
  bool ok = false;
  std::string error;

  bool accepted = false;       ///< checker verdict over the full stream
  std::string reject_reason;   ///< checker's reason when !accepted
  std::uint64_t steps_fed = 0;
  std::uint64_t symbols_fed = 0;
  SymbolStats stats;           ///< exact for a linear trace (incl. peak IDs)

  /// True when the fresh verdict matches what the trace was recorded under
  /// (Violation records expect a reject; everything else expects accept).
  [[nodiscard]] bool matches_recorded(RunVerdict recorded) const noexcept {
    return ok && accepted != verdict_expects_reject(recorded);
  }

  /// Violation is the only verdict whose recorded stream the checker should
  /// reject.  BandwidthExceeded / TrackingInconsistent runs stop at an
  /// *observer* failure, so their prefix stream is still checker-clean.
  [[nodiscard]] static bool verdict_expects_reject(RunVerdict v) noexcept {
    return v == RunVerdict::Violation;
  }
};

/// Re-runs the protocol-independent checker over `trace`'s recorded stream.
/// Excerpt traces (has_base()) first restore the untrusted base snapshot
/// through ScChecker::try_restore; a forged base is an error, not an abort.
[[nodiscard]] TraceCheckResult check_trace(const RunTrace& trace);

/// Streaming variant: replays steps as `reader` hands them out, through the
/// same checker feed and statistics sink, so re-checking a multi-GB trace
/// needs memory for one step at a time.  The reader must be freshly opened
/// and ok(); its header supplies the checker config (callers may override
/// it in place first — scv_check --model does).  A reader error mid-stream
/// (truncation, torn record) makes the result !ok with the reader's
/// diagnostic.
[[nodiscard]] TraceCheckResult check_trace_stream(TraceStreamReader& reader);

}  // namespace scv
