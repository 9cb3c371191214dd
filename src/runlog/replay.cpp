#include "runlog/replay.hpp"

#include <optional>

#include "checker/sc_checker.hpp"

namespace scv {

namespace {

/// Shared replay core: config vetting, optional excerpt-base restore, then
/// each step fed to the checker with ScChecker::feed_batch and counted by
/// the statistics sink.
class Replayer {
 public:
  Replayer(const RunTrace& header, TraceCheckResult& result)
      : result_(result) {
    if (std::string reason = header.checker.invalid_reason();
        !reason.empty()) {
      result_.error = "invalid checker config in trace header: " + reason;
      return;
    }
    checker_.emplace(header.checker);
    if (header.has_base()) {
      std::string reason;
      if (!checker_->try_restore(header.base_state, reason)) {
        result_.error = "invalid excerpt base state: " + reason;
        checker_.reset();
        return;
      }
    }
    result_.ok = true;
    stats_sink_.emplace(static_cast<GraphId>(header.checker.k + 1));
  }

  [[nodiscard]] bool ok() const noexcept { return result_.ok; }

  void feed(const RunStep& step) {
    (void)checker_->feed_batch(step.symbols);
    stats_sink_->begin_step(step.action);
    for (const Symbol& sym : step.symbols) stats_sink_->on_symbol(sym);
    stats_sink_->end_step();
    ++result_.steps_fed;
    result_.symbols_fed += step.symbols.size();
  }

  void finish() {
    result_.accepted = !checker_->rejected();
    if (checker_->rejected()) {
      result_.reject_reason = checker_->reject_reason();
    }
    result_.stats = stats_sink_->stats();
  }

 private:
  TraceCheckResult& result_;
  std::optional<ScChecker> checker_;
  std::optional<SymbolStatsSink> stats_sink_;
};

}  // namespace

TraceCheckResult check_trace(const RunTrace& trace) {
  TraceCheckResult result;
  Replayer replay(trace, result);
  if (!replay.ok()) return result;
  for (const RunStep& step : trace.steps) replay.feed(step);
  replay.finish();
  return result;
}

TraceCheckResult check_trace_stream(TraceStreamReader& reader) {
  TraceCheckResult result;
  if (!reader.ok()) {
    result.error = reader.error();
    return result;
  }
  Replayer replay(reader.header(), result);
  if (!replay.ok()) return result;
  RunStep step;
  while (reader.next(step)) replay.feed(step);
  if (!reader.ok()) {
    result.ok = false;
    result.error = reader.error();
    return result;
  }
  replay.finish();
  return result;
}

}  // namespace scv
