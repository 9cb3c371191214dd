// Differential tests for processor-symmetry orbit canonicalization
// (DESIGN.md §12): reduction on vs. off must agree on every verdict, shrink
// the stored state count on genuinely symmetric protocols, preserve
// counterexample minimality and offline re-checkability, and fall back —
// loudly but soundly — when a protocol's declared symmetry is a lie.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "mc/model_checker.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"

namespace scv {
namespace {

McOptions with_symmetry(bool on) {
  McOptions opt;
  opt.symmetry_reduction = on;
  return opt;
}

// ----------------------------------------------- verdict parity (registry)

// Every bundled protocol, explored with and without reduction under the
// same budget, must reach the same verdict.  The 80k cap is chosen above
// the largest unreduced violation discovery (write_buffer_fwd_drain finds
// its violation at ~62k stored states) so no symmetric pair straddles the
// budget with different verdicts.
TEST(Symmetry, VerdictParityAcrossRegistry) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    McOptions on = with_symmetry(true);
    on.max_states = 80'000;
    McOptions off = with_symmetry(false);
    off.max_states = 80'000;
    const McResult ron = model_check(*proto, on);
    const McResult roff = model_check(*proto, off);
    EXPECT_EQ(ron.verdict, roff.verdict)
        << entry.id << ": on=" << ron.summary() << " off=" << roff.summary();
    EXPECT_TRUE(ron.symmetry_note.empty())
        << entry.id << ": unexpected fallback — " << ron.symmetry_note;
    // The reduced exploration never stores more states than the full one.
    if (ron.verdict != McVerdict::StateLimit) {
      EXPECT_LE(ron.states, roff.states) << entry.id;
    }
    if (proto->processor_symmetric() && proto->params().procs >= 2) {
      EXPECT_TRUE(ron.symmetry_active) << entry.id;
      EXPECT_GT(ron.orbit_reduction, 1.0) << entry.id;
      EXPECT_FALSE(roff.symmetry_active) << entry.id;
      EXPECT_DOUBLE_EQ(roff.orbit_reduction, 1.0) << entry.id;
    } else {
      EXPECT_FALSE(ron.symmetry_active) << entry.id;
      EXPECT_EQ(ron.states, roff.states) << entry.id;
    }
  }
}

// --------------------------------------------------- reduction magnitude

TEST(Symmetry, MsiBusP2HalvesTheStateSpace) {
  MsiBus proto(2, 1, 1);
  const McResult on = model_check(proto, with_symmetry(true));
  const McResult off = model_check(proto, with_symmetry(false));
  ASSERT_EQ(on.verdict, McVerdict::Verified) << on.summary();
  ASSERT_EQ(off.verdict, McVerdict::Verified) << off.summary();
  // With p = 2 almost every product state has a trivial stabilizer, so the
  // quotient is within a whisker of half the full space.
  EXPECT_LT(on.states, off.states);
  EXPECT_GE(static_cast<double>(off.states) / on.states, 1.8);
  EXPECT_GT(on.orbit_reduction, 1.9);
}

TEST(Symmetry, MsiBusP3DepthBoundedReduction) {
  // The p = 3 product does not terminate at test-friendly sizes, but the
  // BFS is level-synchronized, so equal depth bounds mean equal concrete
  // coverage — a like-for-like comparison of stored states.
  MsiBus proto(3, 1, 1);
  McOptions on = with_symmetry(true);
  on.max_depth = 8;
  on.max_states = 1'000'000;
  McOptions off = with_symmetry(false);
  off.max_depth = 8;
  off.max_states = 1'000'000;
  const McResult ron = model_check(proto, on);
  const McResult roff = model_check(proto, off);
  ASSERT_EQ(ron.verdict, roff.verdict);
  EXPECT_GE(static_cast<double>(roff.states) / ron.states, 3.0)
      << "on=" << ron.states << " off=" << roff.states;
  EXPECT_GT(ron.orbit_reduction, 4.0);  // |S_3| = 6; most orbits are full
}

TEST(Symmetry, SerialMemoryP3FullVerification) {
  SerialMemory proto(3, 1, 1);
  const McResult on = model_check(proto, with_symmetry(true));
  const McResult off = model_check(proto, with_symmetry(false));
  ASSERT_EQ(on.verdict, McVerdict::Verified);
  ASSERT_EQ(off.verdict, McVerdict::Verified);
  EXPECT_LT(on.states, off.states);
  EXPECT_GT(on.orbit_reduction, 4.0);
}

// ------------------------------------------- violations under reduction

// Violating symmetric protocols: both modes find a violation, at the same
// BFS depth (level synchrony preserves depth minimality on the quotient),
// and both recorded counterexamples re-check offline.
TEST(Symmetry, ViolationParityAndOfflineRecheck) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    if (!entry.sc_violating) continue;
    const auto proto = entry.make();
    McOptions on = with_symmetry(true);
    on.max_states = 100'000;
    on.record_counterexample = true;
    McOptions off = with_symmetry(false);
    off.max_states = 100'000;
    off.record_counterexample = true;
    const McResult ron = model_check(*proto, on);
    const McResult roff = model_check(*proto, off);
    ASSERT_EQ(ron.verdict, McVerdict::Violation) << entry.id;
    ASSERT_EQ(roff.verdict, McVerdict::Violation) << entry.id;
    EXPECT_EQ(ron.counterexample.size(), roff.counterexample.size())
        << entry.id << ": depth minimality lost under reduction";
    for (const McResult* r : {&ron, &roff}) {
      ASSERT_TRUE(r->counterexample_trace.has_value()) << entry.id;
      const TraceCheckResult chk = check_trace(*r->counterexample_trace);
      EXPECT_TRUE(chk.ok) << entry.id << ": " << chk.error;
      EXPECT_TRUE(chk.matches_recorded(r->counterexample_trace->verdict))
          << entry.id << ": recorded under symmetry_active="
          << r->symmetry_active << ", reject='" << chk.reject_reason << "'";
    }
  }
}

TEST(Symmetry, MultiThreadRecordingIsByteIdentical) {
  WriteBuffer proto(2, 2, 2, 2, true);
  McOptions base = with_symmetry(true);
  base.record_counterexample = true;
  McOptions par = base;
  par.threads = 4;
  const McResult seq = model_check(proto, base);
  const McResult mt = model_check(proto, par);
  ASSERT_EQ(seq.verdict, McVerdict::Violation);
  ASSERT_EQ(mt.verdict, McVerdict::Violation);
  ASSERT_TRUE(seq.counterexample_trace.has_value());
  ASSERT_TRUE(mt.counterexample_trace.has_value());
  ByteWriter ws;
  ByteWriter wp;
  serialize_run_trace(*seq.counterexample_trace, ws);
  serialize_run_trace(*mt.counterexample_trace, wp);
  const auto a = ws.data();
  const auto b = wp.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// ------------------------------------------------ self-check and fallback

// A protocol that *claims* processor symmetry while its permute hooks do
// nothing (Protocol's benign no-op defaults): transitions get renamed but
// the state does not, which breaks commutation.  Wraps MsiBus by
// composition (it is final) and deliberately does NOT forward the permute
// hooks — the declared symmetry is a lie the checks must catch.
class FalselySymmetricMsi final : public Protocol {
 public:
  FalselySymmetricMsi() : inner_(2, 1, 1) {}
  [[nodiscard]] std::string name() const override {
    return "FalselySymmetricMsi";
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
  [[nodiscard]] bool processor_symmetric() const override { return true; }

 private:
  MsiBus inner_;
};

TEST(Symmetry, SelfCheckRejectsFalseDeclaration) {
  const FalselySymmetricMsi proto;
  const SymmetryCheckResult res = check_processor_symmetry(proto);
  EXPECT_TRUE(res.declared);
  EXPECT_TRUE(res.applicable);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.detail.empty());
}

TEST(Symmetry, ModelCheckerFallsBackOnFalseDeclaration) {
  const FalselySymmetricMsi proto;
  const McResult r = model_check(proto, with_symmetry(true));
  EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
  EXPECT_FALSE(r.symmetry_active);
  EXPECT_FALSE(r.symmetry_note.empty());
  // The fallback explores the full space — same count as an honest MsiBus
  // without reduction.
  const McResult full = model_check(MsiBus(2, 1, 1), with_symmetry(false));
  EXPECT_EQ(r.states, full.states);
}

TEST(Symmetry, LintR6WarnsOnFalseDeclaration) {
  const FalselySymmetricMsi proto;
  const LintReport report = lint_protocol(proto);
  EXPECT_GE(report.count(LintRule::R6_ProcessorSymmetry), 1u)
      << report.format();
  bool warned = false;
  for (const LintFinding& f : report.findings) {
    warned |= f.rule == LintRule::R6_ProcessorSymmetry &&
              f.severity == LintSeverity::Warning;
  }
  EXPECT_TRUE(warned) << report.format();
}

/// Declares processor symmetry and renames every location to location 0,
/// so permute_loc is not a bijection.  The symmetry self-check and lint R6
/// share that check; this pins both messages byte for byte.
class CollapsingLocMsi final : public Protocol {
 public:
  CollapsingLocMsi() : inner_(2, 1, 1) {}
  [[nodiscard]] std::string name() const override {
    return "CollapsingLocMsi";
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
  [[nodiscard]] bool processor_symmetric() const override { return true; }
  [[nodiscard]] LocId permute_loc(LocId /*loc*/,
                                  const ProcPerm& /*perm*/) const override {
    return 0;
  }

 private:
  MsiBus inner_;
};

TEST(Symmetry, PermuteLocBijectionFailureWording) {
  const CollapsingLocMsi proto;
  const std::string detail =
      "permute_loc is not a bijection under the (0 1) transposition "
      "(location 1 maps to 0)";
  const SymmetryCheckResult res = check_processor_symmetry(proto);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.detail, detail);
  const LintReport report = lint_protocol(proto);
  bool found = false;
  for (const LintFinding& f : report.findings) {
    found |= f.rule == LintRule::R6_ProcessorSymmetry &&
             f.message ==
                 "declared processor symmetry fails the commutation check: " +
                     detail +
                     "; the model checker falls back to identity "
                     "canonicalization";
  }
  EXPECT_TRUE(found) << report.format();
}

TEST(Symmetry, CommutationCheckCleanOnBundledProtocols) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    const SymmetryCheckResult res = check_processor_symmetry(*proto);
    EXPECT_EQ(res.declared, proto->processor_symmetric()) << entry.id;
    if (res.applicable) {
      EXPECT_TRUE(res.ok) << entry.id << ": " << res.detail;
      EXPECT_GT(res.states_checked, 0u) << entry.id;
    }
  }
}

// --------------------------------------------------------- phase timing

TEST(Symmetry, PhaseTimesCoverExploration) {
  MsiBus proto(2, 1, 1);
  const McResult r = model_check(proto, with_symmetry(true));
  ASSERT_EQ(r.verdict, McVerdict::Verified);
  const double phases = r.phase_times.expand + r.phase_times.canonicalize +
                        r.phase_times.materialize;
  EXPECT_GT(r.phase_times.expand, 0.0);
  EXPECT_GT(r.phase_times.canonicalize, 0.0);
  EXPECT_GT(r.phase_times.materialize, 0.0);
  // Single-threaded: the phases partition the expansion loop, so their sum
  // cannot exceed the total wall clock.
  EXPECT_LE(phases, r.seconds);
}

}  // namespace
}  // namespace scv
