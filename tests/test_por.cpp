// Differential tests for ample-set partial-order reduction (DESIGN.md §14):
// exploring with POR must preserve every verdict the full expansion reaches
// — same verdicts across the registry, byte-identical recorded
// counterexamples on the violating protocols, and a reduced reachable set
// that is a genuine subset of the full one — while the machine checks
// (lint rule R7, the engine's pre-run commutation walk, its runtime ample
// cross-validation) must catch a protocol that lies about independence and
// force the run back to full expansion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/lint.hpp"
#include "mc/model_checker.hpp"
#include "mc/por.hpp"
#include "mc/product.hpp"
#include "protocol/directory.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

McOptions with_por(bool on) {
  McOptions opt;
  opt.max_states = 80'000;
  opt.partial_order_reduction = on;
  return opt;
}

// ------------------------------------------------------- whole-run parity

// POR on vs off across the registry: the verdict must be identical, and the
// reduced run can only ever store fewer states (ample sets prune successors,
// they never invent them).  Protocols that do not opt in (por_enabled()
// false) must run identically with the option on.
TEST(Por, VerdictParityAcrossRegistry) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    const McResult on = model_check(*proto, with_por(true));
    const McResult off = model_check(*proto, with_por(false));
    EXPECT_EQ(on.verdict, off.verdict)
        << entry.id << ": on=" << on.summary() << " off=" << off.summary();
    EXPECT_LE(on.states, off.states) << entry.id;
    EXPECT_EQ(on.symmetry_active, off.symmetry_active) << entry.id;
    EXPECT_FALSE(off.por_active) << entry.id;
    if (!proto->por_enabled()) {
      EXPECT_FALSE(on.por_active) << entry.id;
      EXPECT_EQ(on.states, off.states) << entry.id;
      EXPECT_EQ(on.transitions, off.transitions) << entry.id;
      EXPECT_EQ(on.depth, off.depth) << entry.id;
    }
  }
}

// Counterexample parity on the violating protocols.  None of the planted
// bugs opts into POR (a protocol with a lost invalidation is exactly where
// you do not want pruned interleavings), so the POR-on run must be
// observationally identical down to the recorded trace bytes.
TEST(Por, CounterexampleByteParityOnViolatingProtocols) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    if (!entry.sc_violating) continue;
    const auto proto = entry.make();
    McOptions on = with_por(true);
    on.max_states = 100'000;
    on.record_counterexample = true;
    McOptions off = on;
    off.partial_order_reduction = false;
    const McResult ron = model_check(*proto, on);
    const McResult roff = model_check(*proto, off);
    ASSERT_EQ(ron.verdict, McVerdict::Violation) << entry.id;
    ASSERT_EQ(roff.verdict, McVerdict::Violation) << entry.id;
    EXPECT_EQ(ron.counterexample.size(), roff.counterexample.size())
        << entry.id;
    ASSERT_TRUE(ron.counterexample_trace.has_value()) << entry.id;
    ASSERT_TRUE(roff.counterexample_trace.has_value()) << entry.id;
    ByteWriter wa;
    ByteWriter wb;
    serialize_run_trace(*ron.counterexample_trace, wa);
    serialize_run_trace(*roff.counterexample_trace, wb);
    EXPECT_EQ(wa.data(), wb.data())
        << entry.id << ": recorded counterexamples not byte-identical";
  }
}

// ---------------------------------------------------- reachability subset

// Depth-bounded BFS over the raw product, once expanding every enabled
// transition and once expanding only AmpleSelector's choice (no cycle
// proviso — irrelevant for the subset property, every reduced edge is a
// full-graph edge).  The reduced reachable set must be contained in the
// full one at the same depth bound, and the selector must actually have
// pruned something, or the test is vacuous.
void reachable_keys(const Protocol& proto, bool reduced, std::size_t max_depth,
                    std::unordered_set<std::string>* out,
                    std::size_t* ample_hits) {
  const ObserverConfig ocfg;
  Product cur(proto, ocfg, /*with_observer=*/true);
  Product succ(proto, ocfg, /*with_observer=*/true);
  ProcCanonicalizer canon(proto, /*enable=*/false);
  const DeclaredPorOracle oracle(proto);
  AmpleSelector ample(proto, oracle, reduced);
  KeyScratch ks;

  ByteWriter snap;
  cur.snapshot(snap);
  std::vector<std::vector<std::uint8_t>> frontier{snap.data()};
  canon.canonicalize_key(cur, ks, nullptr);
  out->insert(std::string(ks.w.data().begin(), ks.w.data().end()));

  std::vector<Transition> ts;
  std::vector<std::uint32_t> idx;
  std::vector<Symbol> syms;
  for (std::size_t depth = 0; depth < max_depth && !frontier.empty();
       ++depth) {
    std::vector<std::vector<std::uint8_t>> next;
    for (const std::vector<std::uint8_t>& bytes : frontier) {
      ByteReader r{std::span<const std::uint8_t>(bytes)};
      cur.restore(r);
      ts.clear();
      cur.enumerate(ts);
      const bool use_ample = reduced && ample.select(cur, ts, idx);
      if (use_ample) ++*ample_hits;
      const std::size_t n = use_ample ? idx.size() : ts.size();
      for (std::size_t i = 0; i < n; ++i) {
        succ.assign_from(cur);
        if (succ.step(ts[use_ample ? idx[i] : i], syms) != StepOutcome::Ok) {
          continue;
        }
        canon.canonicalize_key(succ, ks, nullptr);
        std::string key(ks.w.data().begin(), ks.w.data().end());
        if (out->insert(std::move(key)).second) {
          ByteWriter w;
          succ.snapshot(w);
          next.push_back(w.data());
        }
      }
    }
    frontier = std::move(next);
  }
}

TEST(Por, ReducedReachableSetIsSubsetOfFull) {
  const DirectoryProtocol proto(2, 1, 2);
  std::unordered_set<std::string> full;
  std::unordered_set<std::string> reduced;
  std::size_t ample_hits_full = 0;
  std::size_t ample_hits = 0;
  reachable_keys(proto, /*reduced=*/false, /*max_depth=*/8, &full,
                 &ample_hits_full);
  reachable_keys(proto, /*reduced=*/true, /*max_depth=*/8, &reduced,
                 &ample_hits);
  EXPECT_GT(ample_hits, 0u) << "selector never chose an ample set";
  EXPECT_LT(reduced.size(), full.size());
  for (const std::string& key : reduced) {
    ASSERT_TRUE(full.contains(key))
        << "reduced exploration reached a state full exploration cannot";
  }
}

// ------------------------------------------------- determinism and stats

// Ample selection, the cycle proviso and its fallbacks must be
// deterministic across worker counts: the proviso is decided at the level
// barrier against the complete level table, and the fallbacks run as a
// rank-ordered second phase on all workers, which makes thread count an
// implementation detail, not an exploration parameter.  (CI runs this
// under TSan.)
TEST(Por, ThreadCountParityOnDirectory) {
  const DirectoryProtocol proto(2, 1, 2);
  McOptions base;
  base.max_depth = 12;
  std::vector<McResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    McOptions opt = base;
    opt.threads = threads;
    results.push_back(model_check(proto, opt));
  }
  const McResult& a = results[0];
  const McResult& b = results[1];
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_TRUE(a.por_active);
  EXPECT_TRUE(b.por_active);
  EXPECT_EQ(a.por_ample_states, b.por_ample_states);
  EXPECT_EQ(a.por_full_states, b.por_full_states);
  EXPECT_EQ(a.por_proviso_fallbacks, b.por_proviso_fallbacks);
  EXPECT_EQ(a.por_deferred_transitions, b.por_deferred_transitions);
}

TEST(Por, StatsAccountForEveryExpandedState) {
  const DirectoryProtocol proto(3, 1, 1);
  McOptions opt;
  opt.max_depth = 12;
  const McResult on = model_check(proto, opt);
  McOptions off = opt;
  off.partial_order_reduction = false;
  const McResult roff = model_check(proto, off);
  EXPECT_TRUE(on.por_active) << on.por_note;
  EXPECT_TRUE(on.por_note.empty()) << on.por_note;
  EXPECT_GT(on.por_ample_states, 0u);
  EXPECT_GT(on.por_deferred_transitions, 0u);
  EXPECT_LT(on.states, roff.states)
      << "POR pruned nothing on the directory protocol";
  // The POR-off run must not report any reduction accounting.
  EXPECT_EQ(roff.por_ample_states + roff.por_full_states +
                roff.por_proviso_fallbacks + roff.por_deferred_transitions,
            0u);
}

// The per-worker dup cache serves both store modes (the exact-mode path
// revalidates its cached shard/slot against the store bytes), and its
// hit-rate counters surface through McResult.
TEST(Por, DupCacheCountersInBothStoreModes) {
  for (const bool exact : {false, true}) {
    MsiBus proto(2, 1, 1);
    McOptions opt;
    opt.exact_states = exact;
    const McResult r = model_check(proto, opt);
    EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
    EXPECT_GT(r.dup_cache_lookups, 0u) << "exact=" << exact;
    EXPECT_GT(r.dup_cache_hits, 0u) << "exact=" << exact;
    EXPECT_LE(r.dup_cache_hits, r.dup_cache_lookups) << "exact=" << exact;
  }
}

// --------------------------------------------- false declarations (R7)

/// Wraps the directory protocol (it is final) and declares *everything*
/// independent — the bluntest possible lie.  Footprints stay honest, so
/// the ample machinery would happily select sets whose soundness rests on
/// the lie; R7 and the engine's pre-run walk must both refuse it.
class BlanketIndependenceMutant : public Protocol {
 public:
  BlanketIndependenceMutant() : inner_(2, 1, 2) {}
  [[nodiscard]] std::string name() const override {
    return "BlanketIndependenceMutant";
  }
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
    inner_.apply(state, t);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_.could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_.action_name(a);
  }
  [[nodiscard]] bool por_enabled() const override { return true; }
  [[nodiscard]] PorFootprint por_footprint(const Transition& t) const override {
    return inner_.por_footprint(t);
  }
  [[nodiscard]] bool independent(const Transition& /*t*/,
                                 const Transition& /*u*/) const override {
    return true;
  }

 protected:
  DirectoryProtocol inner_;
};

/// A targeted lie on top of the honest relation: two directory-service
/// steps for the same block are claimed independent.  Serving one request
/// marks the block busy and *disables* the other — the non-disabling half
/// of the independence contract is what breaks, not state commutation.
class HomeServiceIndependenceMutant final : public BlanketIndependenceMutant {
 public:
  [[nodiscard]] std::string name() const override {
    return "HomeServiceIndependenceMutant";
  }
  [[nodiscard]] bool independent(const Transition& t,
                                 const Transition& u) const override {
    const auto is_home = [](const Action& a) {
      return !a.is_memory_op() && (a.internal_id == DirectoryProtocol::kHomeS ||
                                   a.internal_id == DirectoryProtocol::kHomeX);
    };
    if (is_home(t.action) && is_home(u.action)) return true;
    return inner_.independent(t, u);
  }
};

/// The R7 warnings lint_protocol reports for `proto`, in report order.
std::vector<std::string> r7_warnings(const Protocol& proto) {
  const LintReport report = lint_protocol(proto);
  std::vector<std::string> out;
  for (const LintFinding& f : report.findings) {
    if (f.rule == LintRule::R7_Independence &&
        f.severity == LintSeverity::Warning) {
      out.push_back(f.message);
    }
  }
  return out;
}

TEST(Por, LintR7WarnsOnFalseDeclaration) {
  EXPECT_FALSE(r7_warnings(BlanketIndependenceMutant()).empty());
  // The targeted lie breaks non-disabling, and the warning says so.
  const std::vector<std::string> home =
      r7_warnings(HomeServiceIndependenceMutant());
  ASSERT_FALSE(home.empty());
  EXPECT_NE(home.front().find("disables"), std::string::npos)
      << home.front();
}

TEST(Por, ModelCheckerVetoesFalseDeclaration) {
  const BlanketIndependenceMutant proto;
  McOptions on;
  on.max_depth = 10;
  // The mutant's lint report carries the R7 warning, not an error, so the
  // lint precheck lets the run proceed — which is the point: the
  // engine's own self-check must catch the lie.
  const McResult r = model_check(proto, on);
  EXPECT_FALSE(r.por_active);
  EXPECT_FALSE(r.por_note.empty());
  McOptions off = on;
  off.partial_order_reduction = false;
  const McResult full = model_check(proto, off);
  EXPECT_EQ(r.verdict, full.verdict);
  EXPECT_EQ(r.states, full.states);
  EXPECT_EQ(r.transitions, full.transitions);
}

/// Answers honestly on the thread that built it — where lint and the
/// pre-run commutation walk run — and lies on every other thread, i.e. the
/// engine's pool workers: there every internal transition is declared
/// invisible and processor-0-local, and every pair independent.  Only the
/// engine's sampled ample cross-validation can catch it.
class PoolThreadPorMutant final : public Protocol {
 public:
  PoolThreadPorMutant() : inner_(2, 2, 1) {}
  [[nodiscard]] std::string name() const override {
    return "PoolThreadPorMutant";
  }
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
    inner_.apply(state, t);
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_.could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_.action_name(a);
  }
  [[nodiscard]] bool por_enabled() const override { return true; }
  [[nodiscard]] PorFootprint por_footprint(const Transition& t) const override {
    if (honest() || t.action.is_memory_op()) return inner_.por_footprint(t);
    PorFootprint lie;
    lie.procs = 1;
    lie.visible = false;
    return lie;
  }
  [[nodiscard]] bool independent(const Transition& t,
                                 const Transition& u) const override {
    return !honest() || inner_.independent(t, u);
  }

 private:
  [[nodiscard]] bool honest() const {
    return std::this_thread::get_id() == owner_;
  }

  DirectoryProtocol inner_;
  std::thread::id owner_ = std::this_thread::get_id();
};

// The lie passes the pre-run walk, so POR engages until a worker's sampled
// ample set (one in every 4096 reduced expansions) fails cross-validation:
// the engine must throw the reduced run away and redo it in full, with the
// same result as a run that never had POR.  Which states get sampled
// depends on how the workers split each level; on a 4-CPU host some
// sample failed in 80 of 80 runs at depth 13, and in 88 of 90 at depth 12.
TEST(Por, RuntimeAmpleCheckFailureRedoesWithoutPor) {
  const PoolThreadPorMutant proto;
  McOptions on;
  on.threads = 2;
  on.max_depth = 13;
  const McResult r = model_check(proto, on);
  EXPECT_FALSE(r.por_active);
  EXPECT_EQ(r.por_note.rfind("ample self-check failed at runtime", 0), 0u)
      << r.por_note;
  McOptions off = on;
  off.partial_order_reduction = false;
  const McResult full = model_check(proto, off);
  EXPECT_EQ(r.verdict, full.verdict) << r.summary();
  EXPECT_EQ(r.states, full.states);
  EXPECT_EQ(r.transitions, full.transitions);
}

}  // namespace
}  // namespace scv
