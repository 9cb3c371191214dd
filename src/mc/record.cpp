#include "mc/record.hpp"

#include <chrono>
#include <deque>
#include <sstream>
#include <utility>

#include "mc/product.hpp"
#include "runlog/sinks.hpp"
#include "util/rng.hpp"

namespace scv {
namespace {

/// The seeded walk both consumers share.  Up to `steps` times: enumerate,
/// pick, name the action once, step.  `on_step(t, action, emitted,
/// outcome)` sees every step taken, `emitted` being the number of symbols
/// the step produced; the walk stops at the first non-Ok outcome and
/// returns it (Ok: it ran its length or reached a dead end).
template <class OnStep>
StepOutcome walk(Product& p, std::uint64_t steps, std::uint64_t seed,
                 OnStep&& on_step) {
  Xoshiro256 rng(seed);
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;
  for (std::uint64_t i = 0; i < steps; ++i) {
    enabled.clear();
    p.enumerate(enabled);
    if (enabled.empty()) break;
    const Transition& t = enabled[pick_walk_transition(enabled, rng)];
    std::string action = p.protocol().action_name(t.action);
    const StepOutcome outcome = p.step(t, symbols, action);
    on_step(t, std::move(action), symbols.size(), outcome);
    if (outcome != StepOutcome::Ok) return outcome;
  }
  return StepOutcome::Ok;
}

}  // namespace

RunTrace record_walk(const Protocol& protocol, const RecordWalkOptions& opt) {
  RunTrace trace;
  trace.protocol = protocol.name();

  Product p(protocol, opt.observer, /*with_observer=*/true);
  trace.checker = p.checker().config();
  RunRecorder recorder;
  p.add_sink(&recorder);

  const StepOutcome outcome =
      walk(p, opt.steps, opt.seed,
           [](const Transition&, const std::string&, std::size_t,
              StepOutcome) {});
  trace.verdict = to_run_verdict(outcome);
  trace.reason = p.failure_reason(outcome);
  trace.steps = recorder.take();
  return trace;
}

std::string to_string(TraceVerdict v) {
  switch (v) {
    case TraceVerdict::Passed: return "Passed";
    case TraceVerdict::Violation: return "Violation";
    case TraceVerdict::BandwidthExceeded: return "BandwidthExceeded";
    case TraceVerdict::TrackingInconsistent: return "TrackingInconsistent";
  }
  return "?";
}

std::string TraceTestResult::summary() const {
  std::ostringstream os;
  os << to_string(verdict) << ": " << steps << " steps (" << memory_ops
     << " LD/ST), " << symbols << " symbols, "
     << (seconds > 0
             ? static_cast<std::size_t>(static_cast<double>(steps) / seconds)
             : 0)
     << " steps/s";
  if (!reason.empty()) os << " — " << reason;
  return os.str();
}

TraceTestResult trace_test(const Protocol& protocol,
                           const TraceTestOptions& options) {
  TraceTestResult result;
  const auto t0 = std::chrono::steady_clock::now();
  Product p(protocol, options.observer, /*with_observer=*/true);
  std::deque<std::string> tail;

  const StepOutcome outcome = walk(
      p, options.max_steps, options.seed,
      [&](const Transition& t, std::string action, std::size_t emitted,
          StepOutcome step) {
        tail.push_back(std::move(action));
        if (tail.size() > kTraceTailLength) tail.pop_front();
        ++result.steps;
        if (t.action.is_memory_op()) ++result.memory_ops;
        // An observer failure's partial emission never reaches the checker.
        if (step == StepOutcome::Ok || step == StepOutcome::Reject) {
          result.symbols += emitted;
        }
      });
  switch (outcome) {
    case StepOutcome::Ok:
      result.verdict = TraceVerdict::Passed;
      break;
    case StepOutcome::Reject:
      result.verdict = TraceVerdict::Violation;
      break;
    case StepOutcome::Bound:
      result.verdict = TraceVerdict::BandwidthExceeded;
      break;
    case StepOutcome::Tracking:
      result.verdict = TraceVerdict::TrackingInconsistent;
      break;
  }
  if (outcome != StepOutcome::Ok) {
    result.reason = p.failure_reason(outcome);
    result.tail.assign(tail.begin(), tail.end());
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace scv
