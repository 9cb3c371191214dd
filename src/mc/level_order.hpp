// Rank order of one BFS level (DESIGN.md §11): the bookkeeping that lets a
// multi-worker level claim, record and order its fresh states exactly as a
// single worker does.
//
// Every successor generated while expanding a level gets a rank
// (phase, gi, ti): phase 0 for the main expansion and 1 for the cycle-
// proviso fallbacks, gi the parent's position in the level's order, ti the
// transition's index in enumerate order.  A state is named by its position
// in the next level's order, and its minimum rank is its parent link.  One
// worker visits successors in rank order, so the discoverer that claims a
// state in the shared store is always its minimum-rank discoverer.  Several
// workers claim in racy order; each logs its fresh claims (RankClaim) and
// the duplicates the shared store answered (RankOffer), and at the level
// barrier LevelShard resolves every fresh state's minimum rank.
// Duplicate-cache hits need no log entry: one worker's ranks only increase
// within a level (a grow re-expansion repeats them exactly), so a hit never
// beats a rank that worker already logged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/fingerprint.hpp"
#include "util/page_alloc.hpp"

namespace scv {

using Rank = std::uint64_t;
inline constexpr Rank kNoRank = ~Rank{0};
/// Bits of a rank holding ti; gi takes the bits above, phase the top bit.
inline constexpr unsigned kRankTiBits = 20;

[[nodiscard]] constexpr Rank make_rank(unsigned phase, std::size_t gi,
                                       std::size_t ti) noexcept {
  return (Rank{phase} << 63) | (Rank{gi} << kRankTiBits) | Rank{ti};
}
[[nodiscard]] constexpr std::size_t rank_gi(Rank r) noexcept {
  return static_cast<std::size_t>((r << 1) >> (kRankTiBits + 1));
}
[[nodiscard]] constexpr std::size_t rank_ti(Rank r) noexcept {
  return static_cast<std::size_t>(r & ((Rank{1} << kRankTiBits) - 1));
}

/// A fresh state a worker claimed in the shared store: its fingerprint, the
/// claiming rank and the position of its snapshot in the claimer's
/// next-level batch.
struct RankClaim {
  Fingerprint fp;
  Rank rank = kNoRank;
  std::uint32_t pos = 0;
};

/// A successor the shared store answered Duplicate: a discoverer that may
/// outrank the claimer of a state fresh at this level.
struct RankOffer {
  Fingerprint fp;
  Rank rank = kNoRank;
};

/// Which of `parts` shards resolves `fp` (workers log into, and each
/// resolves, one partition).
[[nodiscard]] inline std::size_t rank_partition(Fingerprint fp,
                                                std::size_t parts) noexcept {
  return static_cast<std::size_t>(fp.lo >> 32) % parts;
}

/// One partition of a level's fresh states, keyed by fingerprint.  Built
/// from the workers' claims, lowered by their offers, then read for the
/// cycle-proviso membership test, failure accounting and the next
/// frontier's order and links.
class LevelShard {
 public:
  struct State {
    Fingerprint fp;
    Rank best = kNoRank;  ///< minimum rank over every logged discoverer
    std::uint32_t worker = 0;
    std::uint32_t pos = 0;
  };

  /// Empties the shard and sizes its table for `claims` states.
  void reset(std::size_t claims);
  /// Adds worker `worker`'s claim (each fingerprint is claimed once).
  void add(std::uint32_t worker, const RankClaim& c);
  /// Lowers the state's minimum rank; offers for states not claimed at
  /// this level (older states) are ignored.
  void offer(const RankOffer& o);
  [[nodiscard]] bool contains(Fingerprint fp) const;
  [[nodiscard]] const PageVector<State>& states() const noexcept {
    return states_;
  }
  /// Orders the states by minimum rank.  Invalidates lookups until the
  /// next reset().
  void sort_by_rank();

 private:
  [[nodiscard]] std::size_t find(Fingerprint fp) const;

  // Page-mapped (util/page_alloc.hpp): pool workers build these at every
  // level barrier.
  PageVector<State> states_;
  PageVector<std::uint32_t> slots_;  ///< index into states_ + 1; 0 = empty
  std::size_t mask_ = 0;
};

/// Appends the states of every shard, merged in minimum-rank order, to
/// `order` as packed (worker << 32 | pos) references into the workers'
/// next-level batches, and their minimum ranks to `links`.  Each shard must
/// be sorted (sort_by_rank).
void append_rank_order(std::span<const LevelShard> shards,
                       std::vector<std::uint64_t>& order,
                       PageVector<Rank>& links);

}  // namespace scv
