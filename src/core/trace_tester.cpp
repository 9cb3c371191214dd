#include "core/trace_tester.hpp"

#include <chrono>
#include <deque>
#include <sstream>

#include "checker/sc_checker.hpp"
#include "util/rng.hpp"

namespace scv {

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
  const auto finish = [&](TraceVerdict v) {
    result.verdict = v;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  };

  Xoshiro256 rng(options.seed);
  std::vector<std::uint8_t> state(protocol.state_size());
  protocol.initial_state(state);
  Observer obs(protocol, options.observer);
  const auto& pr = protocol.params();
  // The same checker config Product's constructor builds: the observer's
  // bandwidth and memory model, so a tso or coherence observer is checked
  // under its own rules.
  ScChecker chk(ScCheckerConfig{obs.bandwidth(), pr.procs, pr.blocks,
                                pr.values, options.observer.model});

  std::vector<Transition> transitions;
  std::vector<Transition> memory_ops;
  std::vector<Symbol> symbols;
  std::deque<std::string> tail;

  const auto record = [&](const Transition& t) {
    tail.push_back(protocol.action_name(t.action));
    if (tail.size() > options.tail_length) tail.pop_front();
  };

  for (std::uint64_t step = 0; step < options.max_steps; ++step) {
    transitions.clear();
    protocol.enumerate(state, transitions);
    if (transitions.empty()) break;  // quiescent protocol (cannot happen
                                     // for our protocols, but be safe)

    // Bias toward LD/ST operations so traces stay operation-dense.
    memory_ops.clear();
    for (const Transition& t : transitions) {
      if (t.action.is_memory_op()) memory_ops.push_back(t);
    }
    const Transition chosen =
        (!memory_ops.empty() && rng.chance(options.memory_op_percent, 100))
            ? memory_ops[rng.below(memory_ops.size())]
            : transitions[rng.below(transitions.size())];

    protocol.apply(state, chosen);
    record(chosen);
    ++result.steps;
    if (chosen.action.is_memory_op()) ++result.memory_ops;

    symbols.clear();
    const ObserverStatus st = obs.step(chosen, state, symbols);
    if (st == ObserverStatus::BandwidthExceeded) {
      result.reason = obs.error();
      result.tail.assign(tail.begin(), tail.end());
      return finish(TraceVerdict::BandwidthExceeded);
    }
    if (st == ObserverStatus::TrackingInconsistent) {
      result.reason = obs.error();
      result.tail.assign(tail.begin(), tail.end());
      return finish(TraceVerdict::TrackingInconsistent);
    }
    for (const Symbol& sym : symbols) {
      ++result.symbols;
      if (chk.feed(sym) == ScChecker::Status::Reject) {
        result.reason = chk.reject_reason();
        result.tail.assign(tail.begin(), tail.end());
        return finish(TraceVerdict::Violation);
      }
    }
  }
  return finish(TraceVerdict::Passed);
}

}  // namespace scv
