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
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/level_order.hpp"
#include "mc/model_checker.hpp"
#include "mc/product.hpp"
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

// ------------------------------------- a contested claim on the failure path

/// A product step as a protocol sees it: the pre-state's protocol bytes and
/// the action taken.
struct StepId {
  std::vector<std::uint8_t> state;
  Action action;

  [[nodiscard]] bool matches(std::span<const std::uint8_t> s,
                             const Action& a) const {
    return a == action && std::ranges::equal(s, state);
  }
};

/// A state S on one worker's counterexample path, two levels deep or more,
/// that a second parent also discovers, from a later chunk of the parents'
/// level at two workers.  `hold` is a step of the worker that makes S's
/// minimum-rank discovery, no later than that discovery in its chunk;
/// `witness` is a step of the other worker, no earlier than its discovery
/// of S in its chunk.  Each is the only step with its StepId up to the
/// parents' level.
struct Contest {
  std::size_t level = 0;  ///< S's
  StepId hold;
  StepId witness;
  std::size_t states = 0;  ///< one worker's stored states at the failure
};

/// One worker's rank-ordered BFS, redone over the unreduced product
/// (symmetry and POR off) with exact keys, up to the first failing
/// transition; then a contest on the path it links, if there is one.
std::optional<Contest> find_contest(const Protocol& proto,
                                    const ObserverConfig& cfg) {
  using Link = std::pair<std::uint32_t, std::uint32_t>;  // (gi, ti)
  struct Level {
    std::vector<std::vector<std::uint8_t>> snaps;
    std::vector<std::vector<Link>> found;  ///< discoveries in rank order
  };
  Product cur(proto, cfg, true);
  Product succ(proto, cfg, true);
  KeyScratch ks;
  std::vector<Transition> trans;
  std::vector<Symbol> symbols;
  const auto snapshot = [](const Product& p) {
    ByteWriter w;
    p.snapshot(w);
    const auto d = w.data();
    return std::vector<std::uint8_t>(d.begin(), d.end());
  };
  const auto restore = [&](const std::vector<std::uint8_t>& snap) {
    ByteReader r(snap);
    cur.restore(r);
    trans.clear();
    cur.enumerate(trans);
  };
  std::vector<Level> levels(1);
  levels[0].snaps.push_back(snapshot(cur));
  levels[0].found.emplace_back();
  // Key -> (level, frontier position).
  std::unordered_map<std::string, Link> seen;
  const auto key_of = [&](const Product& p) {
    const auto k = p.key(ks);
    return std::string(k.begin(), k.end());
  };
  seen.emplace(key_of(cur), Link{0, 0});
  std::size_t states = 1;
  Link failure{};
  for (std::size_t d = 0;; ++d) {
    levels.emplace_back();
    bool failed = false;
    for (std::size_t gi = 0; gi < levels[d].snaps.size() && !failed; ++gi) {
      restore(levels[d].snaps[gi]);
      for (std::size_t ti = 0; ti < trans.size(); ++ti) {
        succ.assign_from(cur);
        const Link link{static_cast<std::uint32_t>(gi),
                        static_cast<std::uint32_t>(ti)};
        if (succ.step(trans[ti], symbols) != StepOutcome::Ok) {
          failure = link;
          failed = true;
          break;
        }
        Level& next = levels[d + 1];
        const auto [it, fresh] = seen.emplace(
            key_of(succ), Link{static_cast<std::uint32_t>(d + 1),
                               static_cast<std::uint32_t>(next.snaps.size())});
        if (fresh) {
          ++states;
          next.snaps.push_back(snapshot(succ));
          next.found.push_back({link});
        } else if (it->second.first == d + 1) {
          next.found[it->second.second].push_back(link);
        }
      }
    }
    if (failed) {
      levels.resize(d + 1);
      break;
    }
    if (levels[d + 1].snaps.empty() || states > 50'000) return std::nullopt;
  }
  const std::size_t depth = levels.size() - 1;  // level of the failing entry
  const auto step_key = [](std::span<const std::uint8_t> st, const Action& a) {
    std::string k(st.begin(), st.end());
    for (const std::uint8_t b : {static_cast<std::uint8_t>(a.kind),
                                 static_cast<std::uint8_t>(a.op.kind),
                                 a.op.proc, a.op.block, a.op.value,
                                 a.internal_id, a.arg0, a.arg1}) {
      k.push_back(static_cast<char>(b));
    }
    return k;
  };
  std::size_t gi = failure.first;
  for (std::size_t d = depth; d >= 2; --d) {
    const std::vector<Link>& found = levels[d].found[gi];
    const std::size_t chunk =
        std::clamp<std::size_t>(levels[d - 1].snaps.size() / 16, 1, 64);
    // How often each step is taken up to level d - 1.
    std::unordered_map<std::string, std::size_t> taken;
    for (std::size_t e = 0; e < d; ++e) {
      for (const auto& snap : levels[e].snaps) {
        restore(snap);
        for (const Transition& t : trans) {
          ++taken[step_key(cur.protocol_state(), t.action)];
        }
      }
    }
    // The first step taken once in ranks [from, to) of level d - 1.
    const auto unique_step = [&](Link from, Link to) -> std::optional<StepId> {
      for (std::uint32_t g = from.first; g <= to.first; ++g) {
        if (g >= levels[d - 1].snaps.size()) break;
        restore(levels[d - 1].snaps[g]);
        for (std::uint32_t t = g == from.first ? from.second : 0;
             t < trans.size() && (g < to.first || t < to.second); ++t) {
          const auto st = cur.protocol_state();
          if (taken[step_key(st, trans[t].action)] == 1) {
            return StepId{{st.begin(), st.end()}, trans[t].action};
          }
        }
      }
      return std::nullopt;
    };
    for (std::size_t i = 1; i < found.size(); ++i) {
      const std::uint32_t c0 = found[0].first / chunk;
      const std::uint32_t ci = found[i].first / chunk;
      if (ci == c0) continue;
      const auto hold = unique_step({static_cast<std::uint32_t>(c0 * chunk), 0},
                                    {found[0].first, found[0].second + 1});
      const auto witness = unique_step(
          found[i], {static_cast<std::uint32_t>((ci + 1) * chunk), 0});
      if (hold && witness) return Contest{d, *hold, *witness, states};
    }
    gi = found[0].first;
  }
  return std::nullopt;
}

/// A registry protocol forwarding the hooks an unreduced product run uses,
/// except that the pool thread about to make the contest's hold step is
/// held until no other thread has stepped for 300 ms.  contested() says
/// whether another thread had made its witness step by then.
class ContestedStep final : public Protocol {
 public:
  ContestedStep(std::unique_ptr<Protocol> inner, Contest contest)
      : inner_(std::move(inner)), contest_(std::move(contest)) {}

  [[nodiscard]] bool held() const { return held_.load(); }
  [[nodiscard]] bool contested() const { return contested_.load(); }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] const Params& params() const override {
    return inner_->params();
  }
  [[nodiscard]] std::size_t state_size() const override {
    return inner_->state_size();
  }
  void initial_state(std::span<std::uint8_t> state) const override {
    inner_->initial_state(state);
  }
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override {
    inner_->enumerate(state, out);
  }
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override {
    if (std::this_thread::get_id() != owner_) {
      if (contest_.witness.matches(state, t.action)) witnessed_.store(true);
      if (contest_.hold.matches(state, t.action) && !held_.exchange(true)) {
        hold();
        contested_.store(witnessed_.load());
      }
      last_ns_.store(now_ns(), std::memory_order_relaxed);
    }
    inner_->apply(state, t);
  }
  [[nodiscard]] bool real_time_st_order() const override {
    return inner_->real_time_st_order();
  }
  [[nodiscard]] bool real_time_st_order(const MemoryModel& m) const override {
    return inner_->real_time_st_order(m);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_->could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_->action_name(a);
  }
  void transition_effects(const Transition& t,
                          TransitionEffects& out) const override {
    inner_->transition_effects(t, out);
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

  std::unique_ptr<Protocol> inner_;
  Contest contest_;
  std::thread::id owner_ = std::this_thread::get_id();
  mutable std::atomic<bool> held_{false};
  mutable std::atomic<bool> witnessed_{false};
  mutable std::atomic<bool> contested_{false};
  mutable std::atomic<std::int64_t> last_ns_{0};
};

TEST(RankParity, ContestedClaimOnTheCounterexamplePathKeepsTheMinimumRank) {
  // A state on the counterexample path is claimed from a higher rank while
  // the worker holding its minimum-rank discovery waits, so the barrier
  // must link it by the offered minimum rank, not by the claim: the trace
  // then equals one worker's.
  // write_buffer_fwd under sc: a three-level path whose last state is
  // found from two chunks of level 2.
  const auto inner = make_registered_protocol("write_buffer_fwd");
  ASSERT_NE(inner, nullptr);
  const ObserverConfig cfg;
  const std::optional<Contest> contest = find_contest(*inner, cfg);
  ASSERT_TRUE(contest.has_value());
  ContestedStep proto(make_registered_protocol("write_buffer_fwd"), *contest);
  McOptions opt;
  opt.observer = cfg;
  opt.symmetry_reduction = false;
  opt.partial_order_reduction = false;
  opt.record_counterexample = true;
  // Presized, so no level aborts for growth while a worker is held.
  opt.max_states = 4 * contest->states;
  const McResult one = model_check(proto, opt);
  ASSERT_EQ(one.verdict, McVerdict::Violation) << one.summary();
  // The search above modelled this run: same states, the contest on its
  // path.
  ASSERT_EQ(one.states, contest->states);
  ASSERT_GE(one.depth, contest->level);
  McOptions two = opt;
  two.threads = 2;
  const McResult r = model_check(proto, two);
  EXPECT_TRUE(proto.held());
  EXPECT_TRUE(proto.contested());
  EXPECT_EQ(r.verdict, one.verdict);
  EXPECT_EQ(r.depth, one.depth);
  EXPECT_EQ(trace_bytes(r), trace_bytes(one));
  expect_same(one, r, "two workers, contested claim on the path");
}

}  // namespace
}  // namespace scv
