// Thread-count parity of the rank-ordered BFS (DESIGN.md §11): a run
// returns the same McResult at every worker count — verdict, counts,
// counterexample, cycle and the serialized counterexample trace — because
// several workers reproduce one worker's rank order by construction.
//
// Races are too rare on small protocols to rely on, so the barrier
// resolution is also tested as a pure function over hand-built logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/level_order.hpp"
#include "mc/model_checker.hpp"
#include "protocol/directory.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "protocol/write_buffer.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

// ------------------------------------------------ barrier resolution

Fingerprint fp(std::uint64_t n) { return {n, n * 0x9e3779b97f4a7c15ULL + 1}; }

LevelShard resolve(const std::vector<std::vector<RankClaim>>& claims,
                   const std::vector<RankOffer>& offers) {
  LevelShard shard;
  std::size_t n = 0;
  for (const auto& c : claims) n += c.size();
  shard.reset(n);
  for (std::size_t w = 0; w < claims.size(); ++w) {
    for (const RankClaim& c : claims[w]) {
      shard.add(static_cast<std::uint32_t>(w), c);
    }
  }
  for (const RankOffer& o : offers) shard.offer(o);
  return shard;
}

const LevelShard::State& state_of(const LevelShard& shard, Fingerprint f) {
  const auto& states = shard.states();
  const auto it = std::find_if(states.begin(), states.end(),
                               [&](const LevelShard::State& s) {
                                 return s.fp == f;
                               });
  EXPECT_NE(it, states.end());
  return *it;
}

TEST(RankOrder, PacksPhaseThenParentThenTransition) {
  EXPECT_LT(make_rank(0, 3, 9), make_rank(0, 4, 0));
  EXPECT_LT(make_rank(0, 4, 0), make_rank(0, 4, 1));
  EXPECT_LT(make_rank(0, 1u << 30, 5), make_rank(1, 0, 0));
  const Rank r = make_rank(1, 12345, 678);
  EXPECT_EQ(rank_gi(r), 12345u);
  EXPECT_EQ(rank_ti(r), 678u);
}

TEST(RankOrder, ContestedClaimGoesToTheMinimumRankDiscoverer) {
  // Worker 1 claimed the state while expanding entry 7; worker 0 found it
  // earlier in rank order (entry 3) but reached the store second.
  const LevelShard shard =
      resolve({{}, {{fp(1), make_rank(0, 7, 1), 42}}},
              {{fp(1), make_rank(0, 3, 4)}, {fp(1), make_rank(0, 9, 0)}});
  const LevelShard::State& s = state_of(shard, fp(1));
  EXPECT_EQ(s.best, make_rank(0, 3, 4));
  EXPECT_EQ(s.worker, 1u);  // the snapshot stays the claimer's
  EXPECT_EQ(s.pos, 42u);
}

TEST(RankOrder, PhaseOneNeverBeatsPhaseZero) {
  // A fallback expansion rediscovers a main-phase state from an earlier
  // parent position; the phase decides, not the position.
  const LevelShard shard = resolve({{{fp(2), make_rank(0, 50, 3), 0}}},
                                   {{fp(2), make_rank(1, 0, 0)}});
  const LevelShard::State& s = state_of(shard, fp(2));
  EXPECT_EQ(s.best, make_rank(0, 50, 3));
}

TEST(RankOrder, GrowReExpansionRepeatsTheClaimRank) {
  // After a mid-level grow the interrupted entry is expanded again: its
  // already-claimed successor comes back as a duplicate with the very
  // same rank, which leaves its minimum rank as claimed.
  const Rank r = make_rank(0, 11, 2);
  const LevelShard shard =
      resolve({{{fp(3), r, 5}}}, {{fp(3), r}, {fp(4), make_rank(0, 0, 0)}});
  const LevelShard::State& s = state_of(shard, fp(3));
  EXPECT_EQ(s.best, r);
  // Offers for states claimed at an earlier level are ignored.
  EXPECT_FALSE(shard.contains(fp(4)));
  EXPECT_EQ(shard.states().size(), 1u);
}

TEST(RankOrder, NextFrontierFollowsMinimumRank) {
  // Two partitions, claims in racy order; the merged order is the one a
  // single worker would have claimed them in, and each state's link is its
  // minimum rank.  The engine appends phase 1's table after phase 0's.
  std::vector<LevelShard> shards(2);
  shards[0] = resolve({{{fp(10), make_rank(0, 4, 0), 0}},
                       {{fp(11), make_rank(0, 1, 0), 0}}},
                      {{fp(10), make_rank(0, 0, 2)}});
  shards[1] = resolve({{{fp(12), make_rank(0, 2, 1), 1},
                        {fp(13), make_rank(1, 0, 0), 2}}},
                      {});
  std::vector<LevelShard> fallbacks(1);
  fallbacks[0] = resolve({{}, {{fp(14), make_rank(1, 3, 0), 1}}},
                         {{fp(14), make_rank(1, 2, 5)}});
  for (LevelShard& s : shards) s.sort_by_rank();
  fallbacks[0].sort_by_rank();
  std::vector<std::uint64_t> order;
  PageVector<Rank> links;
  append_rank_order(shards, order, links);
  append_rank_order(fallbacks, order, links);
  const std::vector<std::uint64_t> want = {
      (std::uint64_t{0} << 32) | 0,   // fp(10), won at (0, 0, 2)
      (std::uint64_t{1} << 32) | 0,   // fp(11) at (0, 1, 0)
      (std::uint64_t{0} << 32) | 1,   // fp(12) at (0, 2, 1)
      (std::uint64_t{0} << 32) | 2,   // fp(13), a phase-1 claim
      (std::uint64_t{1} << 32) | 1};  // fp(14), phase 1's table
  EXPECT_EQ(order, want);
  const PageVector<Rank> want_links = {
      make_rank(0, 0, 2), make_rank(0, 1, 0), make_rank(0, 2, 1),
      make_rank(1, 0, 0), make_rank(1, 2, 5)};
  EXPECT_EQ(links, want_links);
}

// ------------------------------------------------------ engine parity

std::vector<std::uint8_t> trace_bytes(const McResult& r) {
  if (!r.counterexample_trace.has_value()) return {};
  ByteWriter w;
  serialize_run_trace(*r.counterexample_trace, w);
  const auto d = w.data();
  return {d.begin(), d.end()};
}

/// Everything a run reports that does not depend on how work was split
/// between workers.
void expect_same(const McResult& one, const McResult& r,
                 const std::string& where) {
  EXPECT_EQ(r.verdict, one.verdict) << where << ": " << r.summary();
  EXPECT_EQ(r.reason, one.reason) << where;
  EXPECT_EQ(r.depth, one.depth) << where;
  EXPECT_EQ(r.states, one.states) << where;
  EXPECT_EQ(r.transitions, one.transitions) << where;
  ASSERT_EQ(r.counterexample.size(), one.counterexample.size()) << where;
  for (std::size_t i = 0; i < r.counterexample.size(); ++i) {
    EXPECT_EQ(r.counterexample[i].action, one.counterexample[i].action)
        << where << " step " << i;
    EXPECT_EQ(r.counterexample[i].emitted, one.counterexample[i].emitted)
        << where << " step " << i;
  }
  EXPECT_EQ(r.cycle, one.cycle) << where;
  EXPECT_EQ(trace_bytes(r), trace_bytes(one)) << where;
  EXPECT_EQ(r.por_ample_states, one.por_ample_states) << where;
  EXPECT_EQ(r.por_full_states, one.por_full_states) << where;
  EXPECT_EQ(r.por_proviso_fallbacks, one.por_proviso_fallbacks) << where;
  EXPECT_EQ(r.por_deferred_transitions, one.por_deferred_transitions)
      << where;
}

/// Runs `opt` at 1..4 workers, with the fingerprint store and with exact
/// states, and checks every run against the one-worker result.
/// `quick_only` keeps only the four-worker fingerprint run.
McResult expect_thread_parity(const Protocol& proto, McOptions opt,
                              const std::string& where,
                              bool quick_only = false) {
  opt.record_counterexample = true;
  opt.threads = 1;
  opt.exact_states = false;
  const McResult one = model_check(proto, opt);
  for (const bool exact : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      if (threads == 1 && !exact) continue;
      if (quick_only && (exact || threads != 4)) continue;
      opt.threads = threads;
      opt.exact_states = exact;
      expect_same(one, model_check(proto, opt),
                  where + " threads=" + std::to_string(threads) +
                      (exact ? " exact" : ""));
    }
  }
  return one;
}

/// The registry × model cells whose run fails (13 cells), in two groups.
/// write_buffer_fwd and write_buffer_fwd_drain under tso explore about
/// 700k states before their counterexample (every other cell stays below
/// 130k), so those two compare only the four-worker fingerprint run, which
/// keeps the suite's time bounded, and form their own test for sanitizer
/// jobs to leave out.
std::size_t registry_failure_parity(bool large) {
  std::size_t cells = 0;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      if (!entry.violating_under(nm.model)) continue;
      if ((nm.model.kind == ModelKind::Tso &&
           entry.id.starts_with("write_buffer_fwd")) != large) {
        continue;
      }
      ++cells;
      McOptions opt;
      opt.observer.model = nm.model;
      const McResult one = expect_thread_parity(
          *proto, opt, entry.id + " under " + std::string(nm.name), large);
      EXPECT_EQ(one.verdict, McVerdict::Violation)
          << entry.id << " under " << nm.name;
    }
  }
  return cells;
}

TEST(RankParity, RegistryFailuresMatchOneWorker) {
  EXPECT_EQ(registry_failure_parity(false), 11u);
}

TEST(RankParity, LargeTsoFailuresMatchOneWorker) {
  EXPECT_EQ(registry_failure_parity(true), 2u);
}

TEST(RankParity, BandwidthFailuresAfterProvisoFallbacks) {
  // Symmetry and POR on; the pool runs out several levels deep, after
  // levels whose C3 step sent entries to phase-1 fallbacks.
  const DirectoryProtocol proto(3, 1, 1);
  for (const std::size_t pool : {5u, 6u, 7u}) {
    McOptions opt;
    opt.observer.pool_size = pool;
    const McResult one = expect_thread_parity(
        proto, opt, "directory(3,1,1) pool " + std::to_string(pool));
    EXPECT_EQ(one.verdict, McVerdict::BandwidthExceeded) << one.summary();
    EXPECT_TRUE(one.symmetry_active);
    EXPECT_TRUE(one.por_active);
    EXPECT_GT(one.por_proviso_fallbacks, 0u);
  }
}

TEST(RankParity, MidLevelGrowthRepeatsRanks) {
  // The default budget leaves the fingerprint table at its minimum, so it
  // goes through many aborted and re-expanded entries mid-level
  // (msi_bus_buggy grows to ~29k states before its counterexample).
  const MsiBus proto(2, 2, 2, /*lost_invalidation=*/true);
  const McResult one = expect_thread_parity(proto, {}, "msi_bus_buggy");
  EXPECT_EQ(one.verdict, McVerdict::Violation);
}

// ------------------------------------- failure and state limit together

/// The registry's write_buffer (WriteBuffer(2, 2, 2, 2), sc-violating one
/// level below the initial state), forwarding every hook, except that the
/// armed n-th step made on a pool thread is held until no other thread has
/// stepped for 300 ms.
class HeldStep final : public Protocol {
 public:
  HeldStep() : inner_(2, 2, 2, 2, /*forwarding=*/false) {}

  void arm(std::uint64_t nth) { nth_ = nth; }
  [[nodiscard]] bool held() const { return held_.load(); }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const Params& params() const override {
    return inner_.params();
  }
  [[nodiscard]] std::size_t state_size() const override {
    return inner_.state_size();
  }
  void initial_state(std::span<std::uint8_t> state) const override {
    inner_.initial_state(state);
  }
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override {
    inner_.enumerate(state, out);
  }
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override {
    if (std::this_thread::get_id() != owner_ &&
        pool_steps_.fetch_add(1) + 1 == nth_) {
      held_.store(true);
      hold();
    }
    last_ns_.store(now_ns(), std::memory_order_relaxed);
    inner_.apply(state, t);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_.could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_.action_name(a);
  }
  void transition_effects(const Transition& t,
                          TransitionEffects& out) const override {
    inner_.transition_effects(t, out);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void hold() const {
    last_ns_.store(now_ns(), std::memory_order_relaxed);
    while (now_ns() - last_ns_.load(std::memory_order_relaxed) <
           300'000'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  WriteBuffer inner_;
  std::thread::id owner_ = std::this_thread::get_id();
  std::uint64_t nth_ = 0;
  mutable std::atomic<std::uint64_t> pool_steps_{0};
  mutable std::atomic<bool> held_{false};
  mutable std::atomic<std::int64_t> last_ns_{0};
};

TEST(RankParity, FailureAndStateLimitInOneLevelRerunOnOneWorker) {
  // write_buffer's level 1, in rank order: entry 0 has twelve fresh
  // successors, entry 1 fails on its first transition.  A budget of the
  // states one worker holds at that failure is used up by entry 0's last
  // claim, so one worker stops at the budget.
  HeldStep proto;
  McOptions opt;
  opt.symmetry_reduction = false;  // the level layout above is unreduced
  opt.record_counterexample = true;
  const McResult free_run = model_check(proto, opt);
  ASSERT_EQ(free_run.verdict, McVerdict::Violation) << free_run.summary();
  ASSERT_EQ(free_run.depth, 1u);
  opt.max_states = free_run.states;
  const McResult one = model_check(proto, opt);
  ASSERT_EQ(one.verdict, McVerdict::StateLimit) << one.summary();

  // Two workers, the first step of level 1 held (the initial state has
  // trans.size() steps).  Entries 0 and 1 are the first two chunks, so
  // either the holder of entry 1 is held at the failure while the other
  // worker uses up the budget, or the holder of entry 0 is held while the
  // other meets the failure, and its claims then use up the budget: both
  // trip in one level either way.
  std::vector<std::uint8_t> init(proto.state_size());
  proto.initial_state(init);
  std::vector<Transition> trans;
  proto.enumerate(init, trans);
  proto.arm(trans.size() + 1);
  McOptions two = opt;
  two.threads = 2;
  const McResult r = model_check(proto, two);
  EXPECT_TRUE(proto.held());
  expect_same(one, r, "two workers, failure and budget in one level");
  // The level re-ran on one worker and its result came back whole, down to
  // the worker-dependent duplicate-cache counters.
  EXPECT_EQ(r.dup_cache_lookups, one.dup_cache_lookups);
  EXPECT_EQ(r.dup_cache_hits, one.dup_cache_hits);
}

}  // namespace
}  // namespace scv
