#include "mc/por.hpp"

#include <bit>
#include <tuple>

#include "mc/product.hpp"

namespace scv {

AmpleSelector::AmpleSelector(const Protocol& protocol,
                             const PorOracle& oracle, bool enable)
    : oracle_(&oracle),
      active_(enable && oracle.por_enabled() &&
              protocol.params().procs <= 32 &&
              protocol.params().blocks <= 32) {}

bool AmpleSelector::select(const Product& product,
                           const std::vector<Transition>& trans,
                           std::vector<std::uint32_t>& out) {
  out.clear();
  const std::size_t n = trans.size();
  if (!active_ || n <= 1) return false;

  // Pass 1: footprints and C2 candidacy.  A candidate is invisible (by
  // footprint and by the product's symbol-emission test) and local to a
  // single processor — multi-processor footprints (bus snoops, directory
  // home actions) can never anchor an ample set.
  fps_.clear();
  fps_.reserve(n);
  candidate_.assign(n, 0);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    fps_.push_back(oracle_->footprint(trans[i]));
    const PorFootprint& fp = fps_.back();
    if (!fp.visible && std::has_single_bit(fp.procs) &&
        !product.transition_visible(trans[i])) {
      candidate_[i] = 1;
      any = true;
    }
  }
  if (!any) return false;

  // Pass 2: group candidates by (processor, block mask).  Grouping keeps
  // mutually dependent candidates (e.g. ReqS and ReqX of the same cache
  // entry) together, which C1 requires.
  ngroups_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (candidate_[i] == 0) continue;
    const auto proc =
        static_cast<std::uint8_t>(std::countr_zero(fps_[i].procs));
    const std::uint32_t blocks = fps_[i].blocks;
    std::size_t g = 0;
    for (; g < ngroups_; ++g) {
      if (groups_[g].proc == proc && groups_[g].blocks == blocks) break;
    }
    if (g == ngroups_) {
      if (ngroups_ == groups_.size()) groups_.emplace_back();
      groups_[g].proc = proc;
      groups_[g].blocks = blocks;
      groups_[g].members.clear();
      ++ngroups_;
    }
    groups_[g].members.push_back(i);
  }

  // Pass 3: validate each group against C1's in-state half — every
  // co-enabled non-member must be independent (both directions; the
  // relation is required to be symmetric, but a buggy override should
  // degrade to full expansion, not unsoundness) of every member — and keep
  // the deterministic minimum over (|A|, proc, blocks).
  std::size_t best = ngroups_;
  for (std::size_t g = 0; g < ngroups_; ++g) {
    const Group& grp = groups_[g];
    if (grp.members.size() >= n) continue;  // no reduction
    bool valid = true;
    for (std::size_t j = 0; j < n && valid; ++j) {
      if (candidate_[j] != 0 && fps_[j].procs == (1u << grp.proc) &&
          fps_[j].blocks == grp.blocks) {
        continue;  // member of this group
      }
      for (const std::uint32_t i : grp.members) {
        if (!oracle_->independent(trans[i], trans[j]) ||
            !oracle_->independent(trans[j], trans[i])) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;
    if (best == ngroups_) {
      best = g;
      continue;
    }
    const Group& b = groups_[best];
    const auto key = [](const Group& x) {
      return std::tuple(x.members.size(), x.proc, x.blocks);
    };
    if (key(grp) < key(b)) best = g;
  }
  if (best == ngroups_) return false;
  out = groups_[best].members;  // ascending by construction
  return true;
}

}  // namespace scv
