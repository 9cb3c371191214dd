// R7 (declared-independence vs the inferred conflict relation) and R8
// (declared-footprint imprecision).
//
// A protocol opting into partial-order reduction (por_enabled()) declares
// an independence relation via independent(t, u).  The ample-set engine
// (DESIGN.md §14) relies on exactly the diamond property for co-enabled
// independent pairs: neither transition disables the other, and the two
// execution orders reach the same protocol state.  A false declaration
// would let an ample set skip a transition whose interleaving matters —
// the classical way POR goes unsound.  PR 7 sampled the promise on a
// bounded walk; over the exhaustive skeleton the inferred relation of
// DESIGN.md §15 *decides* it — every reachable co-enabled pair is swept,
// so a clean R7 is a theorem about the protocol half of the obligation,
// not evidence.  The model checker additionally runs its own product-level
// self-check (observer symbols included) before enabling POR, so a wrong
// declaration is caught twice, at lint time and at verification time.
//
// R8 is the dual direction: a declaration may be sound but needlessly
// coarse.  A shape the inference proves observer-invisible and private to
// one processor on every reachable edge, yet declared visible (the
// everything-conflicts default), can never enter an ample set — the
// protocol pays full-interleaving cost for no soundness gain.  That is a
// note, not a warning: coarseness costs states, never correctness.
//
// Transitions are matched across states by their full serialized identity
// (action, location labels, sorted copy entries): two transitions with the
// same action but different copy plumbing move tracked values differently
// and must not be conflated.
#include <bit>
#include <cstdint>
#include <string>

#include "analysis/footprint_infer.hpp"
#include "analysis/internal.hpp"
#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "protocol/protocol.hpp"

namespace scv::analysis {

void check_por_independence(LintContext& ctx) {
  if (!ctx.rule_selected(LintRule::R7_Independence)) return;
  const Protocol& proto = *ctx.protocol;
  RuleCoverage& cov = ctx.coverage(LintRule::R7_Independence);
  cov.ran = true;
  if (!proto.por_enabled()) {
    cov.definite = true;  // vacuous: no relation declared
    return;
  }
  const ProtocolSkeleton& sk = *ctx.skeleton;
  const InferredPor& inf = *ctx.inferred;
  cov.definite = inf.relation_definite;
  cov.states = sk.num_states();

  const std::size_t n = sk.shapes.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const PairInfo& pi = inf.pair(i, j);
      if (pi.co_enabled == 0) continue;
      const Transition& t = sk.shapes[i].rep;
      const Transition& u = sk.shapes[j].rep;
      const bool ij = proto.independent(t, u);
      const bool ji = proto.independent(u, t);
      if (!ij && !ji) continue;
      ++cov.checked;
      const std::string an_i = proto.action_name(sk.shapes[i].rep.action);
      const std::string an_j = proto.action_name(sk.shapes[j].rep.action);
      if (ij != ji) {
        const std::string& an_t = ij ? an_i : an_j;
        const std::string& an_u = ij ? an_j : an_i;
        ctx.add(LintRule::R7_Independence, LintSeverity::Warning,
                "declared independence is asymmetric: independent('" + an_t +
                    "', '" + an_u +
                    "') holds but the swapped pair does not; the model "
                    "checker's pre-run self-check will veto partial-order "
                    "reduction and fall back to full expansion",
                "asym:" + an_i + "/" + an_j);
        continue;
      }
      if (pi.verdict == PairVerdict::Dependent) {
        ctx.add(LintRule::R7_Independence, LintSeverity::Warning,
                "declared independence fails the commutation check: " +
                    describe_pair_failure(sk, inf, i, j) +
                    " [reachable state " +
                    std::to_string(pi.witness_state) +
                    "]; the model checker's pre-run self-check will veto "
                    "partial-order reduction and fall back to full "
                    "expansion",
                "commutation:" + an_i + "/" + an_j);
      }
    }
  }
}

void check_footprint_precision(LintContext& ctx) {
  if (!ctx.rule_selected(LintRule::R8_FootprintImprecision)) return;
  const Protocol& proto = *ctx.protocol;
  RuleCoverage& cov = ctx.coverage(LintRule::R8_FootprintImprecision);
  cov.ran = true;
  if (!proto.por_enabled()) {
    cov.definite = true;  // no POR, so coarseness costs nothing
    return;
  }
  const ProtocolSkeleton& sk = *ctx.skeleton;
  const InferredPor& inf = *ctx.inferred;
  if (!inf.usable) {
    // Imprecision claims need the exhaustive inference; without it the
    // pass stays silent rather than guessing.
    cov.definite = false;
    return;
  }
  cov.definite = true;
  cov.states = sk.num_states();

  const std::size_t n = sk.shapes.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!inf.invisible[i] || !std::has_single_bit(inf.proc_support[i])) {
      continue;
    }
    ++cov.checked;
    const PorFootprint fp = proto.por_footprint(sk.shapes[i].rep);
    if (!fp.visible) continue;
    const std::string an = proto.action_name(sk.shapes[i].rep.action);
    const auto p = std::countr_zero(inf.proc_support[i]);
    ctx.add(LintRule::R8_FootprintImprecision, LintSeverity::Note,
            "'" + an +
                "' is declared observer-visible (the everything-conflicts "
                "default) but is provably invisible and private to "
                "processor " +
                std::to_string(p) +
                " on every reachable edge; a tighter por_footprint() — or "
                "running with McOptions::inferred_footprints — would let "
                "it enter ample sets",
            "coarse:" + an);
  }
}

}  // namespace scv::analysis
