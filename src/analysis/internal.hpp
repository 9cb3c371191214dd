// Shared state between the lint driver and the individual rule passes.
// Internal to src/analysis/ — nothing outside the subsystem includes this.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/footprint_infer.hpp"
#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"

namespace scv::analysis {

struct LintContext {
  const Protocol* protocol = nullptr;
  const LintOptions* options = nullptr;
  LintReport* report = nullptr;

  /// The shared control-skeleton IR every rule pass reads (DESIGN.md §15).
  /// Exhaustive mode builds it to completion (up to the safety cap);
  /// Sampled mode caps it at 2048 states and depth 64.
  const ProtocolSkeleton* skeleton = nullptr;
  /// Inferred conflict footprints over the skeleton's shapes; built for
  /// R7/R8 only when the protocol opts into POR (null otherwise).
  const InferredPor* inferred = nullptr;

  /// R2 aggregates, filled by the transition sweep: can location l come to
  /// hold a store's value / is it ever consulted?
  std::vector<bool> loc_written;
  std::vector<bool> loc_read;

  [[nodiscard]] bool rule_selected(LintRule r) const {
    return (options->rules & lint_rule_bit(r)) != 0;
  }
  [[nodiscard]] RuleCoverage& coverage(LintRule r) const {
    return report->stats.coverage[static_cast<std::uint8_t>(r)];
  }

  /// Emits a finding unless an identical (rule, dedup key) was already
  /// reported; per-rule caps keep pathological protocols readable.
  void add(LintRule rule, LintSeverity severity, std::string message,
           const std::string& dedup_key);

 private:
  std::unordered_set<std::string> seen_;
  std::size_t per_rule_[kNumLintRules] = {};
  bool capped_[kNumLintRules] = {};
};

/// Serializes a transition into a comparable byte string (copy entries
/// sorted; see symmetry.cpp).  The transition's full identity: equal
/// encodings are the same *shape* to the skeleton, the rules and the
/// footprint inference.
[[nodiscard]] std::string encode_transition(const Transition& t);
/// Allocation-free variant for hot loops: reuses `out`'s capacity.
void encode_transition_into(const Transition& t, std::string& out);

/// R1 + R5 + the R2 aggregates, in one sweep over the skeleton's shape
/// table and CSR rows.
void check_transitions(LintContext& ctx);
/// R2, from the aggregates left by check_transitions() plus (complete
/// skeletons) the backward liveness fixpoint.
void check_location_liveness(LintContext& ctx);
/// R3; tightens the static bound with the occupancy fixpoint on complete
/// skeletons.
void check_bandwidth(LintContext& ctx);
/// R4.
void check_non_interference(LintContext& ctx);
/// R6 (symmetry.cpp): declared processor symmetry must pass the
/// check_state_under commutation checks on a strided skeleton sample.
void check_symmetry(LintContext& ctx);
/// R7 (independence.cpp): a POR-enabled protocol's declared independence
/// relation must agree with the inferred conflict relation on every
/// reachable co-enabled pair.
void check_por_independence(LintContext& ctx);
/// R8 (independence.cpp): shapes the inference proves invisible and
/// single-processor but the declaration leaves visible.
void check_footprint_precision(LintContext& ctx);

}  // namespace scv::analysis
