// R3: static descriptor-bandwidth estimate.  The Section 4.4 accounting
// bounds the observer's simultaneously active constraint-graph nodes by a
// function of L, p, b; comparing that static bound against the bandwidth
// the checker is configured for catches "the descriptor alphabet cannot
// cover this protocol" before any exploration starts.  On a complete
// skeleton the L term is tightened from "all declared locations" to the
// occupancy fixpoint's maximum of simultaneously-holding locations — a
// pool that clears the tightened bound cannot abort on the inh-active
// store account even if it undershoots the declared-L worst case.
#include <algorithm>
#include <string>

#include "analysis/dataflow.hpp"
#include "analysis/internal.hpp"
#include "descriptor/symbol.hpp"

namespace scv::analysis {

void check_bandwidth(LintContext& ctx) {
  if (!ctx.rule_selected(LintRule::R3_Bandwidth)) return;
  const Protocol& proto = *ctx.protocol;
  const auto& pr = proto.params();
  const ObserverConfig& oc = ctx.options->observer;
  const ProtocolSkeleton& sk = *ctx.skeleton;

  const std::size_t want = Observer::active_node_bound(proto, oc.model);

  // Tightened L term: the forward occupancy fixpoint's maximal number of
  // locations that may simultaneously hold a store's value on a reachable
  // state.  Exact only over a complete skeleton; otherwise fall back to
  // the declared location count.
  std::size_t live_locs = pr.locations;
  if (sk.complete) {
    const std::vector<LocSet> occ = solve_forward_may(occupancy_problem(sk));
    std::size_t max_occ = 0;
    for (const LocSet& s : occ) {
      max_occ = std::max(max_occ, static_cast<std::size_t>(s.count()));
    }
    live_locs = std::min(live_locs, max_occ);
  }
  const std::size_t live_want = want - pr.locations + live_locs;

  // The ID pool and bandwidth k the observer will actually emit under.
  const auto [pool, k] = Observer::pool_and_bandwidth(proto, oc);

  RuleCoverage& cov = ctx.coverage(LintRule::R3_Bandwidth);
  cov.ran = true;
  cov.definite = true;  // the static bound needs no enumeration
  cov.states = sk.complete ? sk.num_states() : 0;
  cov.checked = 1;

  if (k > kMaxBandwidth) {
    ctx.add(LintRule::R3_Bandwidth, LintSeverity::Error,
            "configured descriptor bandwidth k=" + std::to_string(k) +
                (oc.location_mirrored ? " (location-mirrored: L + pool)"
                                      : "") +
                " exceeds kMaxBandwidth=" + std::to_string(kMaxBandwidth) +
                "; the finite-state checker cannot represent this protocol",
            "k-overflow");
    return;
  }
  if (pool < live_want) {
    ctx.add(LintRule::R3_Bandwidth, LintSeverity::Warning,
            "configured ID pool (" + std::to_string(pool) +
                ") is below the static active-node bound " +
                std::to_string(live_want) +
                (live_locs < pr.locations
                     ? " (max-occupancy " + std::to_string(live_locs) +
                           " + pb + chain tails + 2b + slack)"
                     : " (L + pb + chain tails + 2b + slack)") +
                "; verification may abort with BandwidthExceeded",
            "pool-below-bound");
  } else if (pool < want) {
    ctx.add(LintRule::R3_Bandwidth, LintSeverity::Note,
            "configured ID pool (" + std::to_string(pool) +
                ") undershoots the declared-L bound " + std::to_string(want) +
                " but clears the occupancy-tightened bound " +
                std::to_string(live_want) + " (at most " +
                std::to_string(live_locs) +
                " locations ever hold a value simultaneously)",
            "pool-below-declared-bound");
  }
  if (want > kMaxBandwidth - (oc.location_mirrored ? pr.locations : 0)) {
    ctx.add(LintRule::R3_Bandwidth, LintSeverity::Warning,
            "static active-node bound " + std::to_string(want) +
                " exceeds the representable bandwidth " +
                std::to_string(kMaxBandwidth) +
                (oc.location_mirrored ? " minus the L mirrored location IDs"
                                      : "") +
                "; the descriptor alphabet cannot cover the worst case and "
                "deep runs may abort with BandwidthExceeded",
            "bound-overflow");
  }
}

}  // namespace scv::analysis
