#include "mc/level_order.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace scv {

void LevelShard::reset(std::size_t claims) {
  states_.clear();
  states_.reserve(claims);
  // Load factor at most 1/2 keeps linear probes short.
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(claims * 2, 16));
  slots_.assign(cap, 0);
  mask_ = cap - 1;
}

std::size_t LevelShard::find(Fingerprint fp) const {
  std::size_t i = fp.hi & mask_;
  while (slots_[i] != 0 && !(states_[slots_[i] - 1].fp == fp)) {
    i = (i + 1) & mask_;
  }
  return i;
}

void LevelShard::add(std::uint32_t worker, const RankClaim& c) {
  const std::size_t i = find(c.fp);
  SCV_ASSERT(slots_[i] == 0);  // the store hands each state to one claimer
  states_.push_back({c.fp, c.rank, c.rank, worker, c.pos, c.idx});
  slots_[i] = static_cast<std::uint32_t>(states_.size());
}

void LevelShard::offer(const RankOffer& o) {
  const std::uint32_t s = slots_[find(o.fp)];
  if (s == 0) return;
  State& st = states_[s - 1];
  st.best = std::min(st.best, o.rank);
}

bool LevelShard::contains(Fingerprint fp) const {
  return slots_[find(fp)] != 0;
}

void LevelShard::sort_by_rank() {
  std::sort(states_.begin(), states_.end(),
            [](const State& a, const State& b) { return a.best < b.best; });
}

void append_rank_order(std::span<const LevelShard> shards,
                       std::vector<std::uint64_t>& order) {
  std::vector<std::size_t> head(shards.size(), 0);
  std::size_t total = 0;
  for (const LevelShard& s : shards) total += s.states().size();
  order.reserve(order.size() + total);
  for (std::size_t n = 0; n < total; ++n) {
    std::size_t pick = shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (head[s] == shards[s].states().size()) continue;
      if (pick == shards.size() ||
          shards[s].states()[head[s]].best <
              shards[pick].states()[head[pick]].best) {
        pick = s;
      }
    }
    const LevelShard::State& st = shards[pick].states()[head[pick]++];
    order.push_back((std::uint64_t{st.worker} << 32) | st.pos);
  }
}

}  // namespace scv
