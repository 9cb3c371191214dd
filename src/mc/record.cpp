#include "mc/record.hpp"

#include <string>
#include <vector>

#include "mc/product.hpp"
#include "runlog/sinks.hpp"
#include "util/rng.hpp"

namespace scv {

RunTrace record_walk(const Protocol& protocol, const RecordWalkOptions& opt) {
  RunTrace trace;
  trace.protocol = protocol.name();

  Product p(protocol, opt.observer, /*with_observer=*/true);
  trace.checker = p.checker().config();
  RunRecorder recorder;
  p.add_sink(&recorder);

  Xoshiro256 rng(opt.seed);
  std::vector<Transition> enabled;
  std::vector<Transition> ops;
  std::vector<Symbol> symbols;

  for (std::size_t i = 0; i < opt.steps; ++i) {
    enabled.clear();
    p.enumerate(enabled);
    if (enabled.empty()) break;
    ops.clear();
    for (const Transition& t : enabled) {
      if (t.action.is_memory_op()) ops.push_back(t);
    }
    const Transition chosen =
        (!ops.empty() && rng.chance(opt.memory_op_percent, 100))
            ? ops[rng.below(ops.size())]
            : enabled[rng.below(enabled.size())];

    const std::string action = protocol.action_name(chosen.action);
    const StepOutcome outcome = p.step(chosen, symbols, action);
    if (outcome != StepOutcome::Ok) {
      switch (outcome) {
        case StepOutcome::Reject:
          trace.verdict = RunVerdict::Violation;
          break;
        case StepOutcome::Bound:
          trace.verdict = RunVerdict::BandwidthExceeded;
          break;
        case StepOutcome::Tracking:
          trace.verdict = RunVerdict::TrackingInconsistent;
          break;
        case StepOutcome::Ok:
          break;
      }
      trace.reason = p.failure_reason(outcome);
      break;
    }
  }

  trace.steps = recorder.take();
  return trace;
}

}  // namespace scv
