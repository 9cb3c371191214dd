// Shared test helper: random walks over a protocol with independent
// ST-index tracking (trace-indexed, as in Figure 4), used to check that
// tracking labels tell the truth and to collect traces for the SC oracle.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/product.hpp"
#include "protocol/protocol.hpp"
#include "protocol/registry.hpp"
#include "protocol/st_index.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace scv::testing {

struct WalkResult {
  Trace trace;                         ///< LD/ST operations, in order
  std::vector<Transition> transitions; ///< every transition taken
  /// Set if a load's value disagreed with the store its location tracks
  /// (tracking labels inconsistent) — never expected for our protocols.
  std::optional<std::size_t> tracking_violation;
};

/// Walks `steps` random transitions, maintaining a trace-indexed
/// StIndexTracker exactly as Section 4.1 prescribes, and validates at every
/// load that the tracked store matches the loaded (block, value) — or that
/// the location tracks nothing and the load returned ⊥.
inline WalkResult random_walk(const Protocol& proto, std::size_t steps,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  WalkResult result;
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  StIndexTracker tracker(proto.params().locations);

  std::vector<Transition> enabled;
  for (std::size_t i = 0; i < steps; ++i) {
    enabled.clear();
    proto.enumerate(state, enabled);
    if (enabled.empty()) break;
    const Transition chosen = enabled[pick_walk_transition(enabled, rng)];

    if (chosen.action.kind == Action::Kind::Load) {
      const std::uint32_t idx = tracker.at(chosen.loc);
      const Operation& op = chosen.action.op;
      const bool ok =
          (idx == StIndexTracker::kNoStore)
              ? op.value == kBottom
              : (result.trace[idx - 1].is_store() &&
                 result.trace[idx - 1].block == op.block &&
                 result.trace[idx - 1].value == op.value);
      if (!ok && !result.tracking_violation) {
        result.tracking_violation = result.trace.size();
      }
    }

    proto.apply(state, chosen);
    if (chosen.action.is_memory_op()) {
      result.trace.push_back(chosen.action.op);
    }
    if (chosen.action.kind == Action::Kind::Store) {
      tracker.on_store(chosen.loc,
                       static_cast<std::uint32_t>(result.trace.size()));
    }
    if (!chosen.copies.empty()) {
      tracker.on_copies({chosen.copies.begin(), chosen.copies.size()});
    }
    result.transitions.push_back(chosen);
  }
  return result;
}

/// Finds the unique enabled transition matching `pred`; aborts if absent or
/// ambiguous matches with different effects are fine for driving scripts.
inline Transition find_transition(
    const Protocol& proto, std::span<const std::uint8_t> state,
    const std::function<bool(const Transition&)>& pred) {
  std::vector<Transition> enabled;
  proto.enumerate(state, enabled);
  for (const Transition& t : enabled) {
    if (pred(t)) return t;
  }
  SCV_UNREACHABLE("no enabled transition matches the predicate");
}

/// Steps a full product (protocol, observer, checker) `steps` seeded-random
/// transitions for every registry protocol under every model of the axis
/// (sc, tso, coherence) and hands each state reached to `visit`, with its
/// step number (1-based).  A walk ends at its first failing step or dead
/// end.  Covers the snapshot layouts the model checker's frontier and the
/// streaming service actually produce.
inline void for_each_registry_walk_state(
    std::size_t steps, std::uint64_t seed,
    const std::function<void(const RegisteredProtocol&, const NamedModel&,
                             const Product&, std::size_t)>& visit) {
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const std::unique_ptr<Protocol> proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      ObserverConfig cfg;
      cfg.model = nm.model;
      Product p(*proto, cfg, /*with_observer=*/true);
      Xoshiro256 rng(seed);
      for (std::size_t i = 1; i <= steps; ++i) {
        enabled.clear();
        p.enumerate(enabled);
        if (enabled.empty()) break;
        const Transition t = enabled[rng.below(enabled.size())];
        if (p.step(t, symbols) != StepOutcome::Ok) break;
        visit(entry, nm, p, i);
      }
    }
  }
}

}  // namespace scv::testing
