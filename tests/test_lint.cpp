// The static protocol analyzer (src/analysis/): a clean pass over every
// bundled protocol, and deliberately broken mutants of msi_bus /
// lazy_caching each triggering exactly the finding its seeded defect
// deserves (ISSUE rules R1–R5).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>

#include "analysis/lint.hpp"
#include "descriptor/symbol.hpp"
#include "mc/model_checker.hpp"
#include "protocol/get_shared_toy.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "protocol/serial_memory.hpp"

namespace scv {
namespace {

/// Decorator protocol for seeding metadata defects: forwards everything to
/// the wrapped protocol, then lets the test rewrite the enumerated
/// transitions (and, when the rewrite invents actions, handle them in
/// apply), or present altered Params.
class MutantProtocol final : public Protocol {
 public:
  using Rewrite = std::function<void(std::vector<Transition>&)>;
  /// Returns true when it consumed the transition (a mutant-invented one).
  using ApplyHook = std::function<bool(std::span<std::uint8_t>,
                                       const Transition&)>;

  MutantProtocol(std::unique_ptr<Protocol> inner, Rewrite rewrite,
                 std::optional<Params> params = std::nullopt,
                 ApplyHook apply_hook = nullptr)
      : inner_(std::move(inner)),
        rewrite_(std::move(rewrite)),
        params_(params.value_or(inner_->params())),
        apply_hook_(std::move(apply_hook)) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "Mutant";
  }
  [[nodiscard]] const Params& params() const override { return params_; }
  [[nodiscard]] std::size_t state_size() const override {
    return inner_->state_size();
  }
  void initial_state(std::span<std::uint8_t> state) const override {
    inner_->initial_state(state);
  }
  void enumerate(std::span<const std::uint8_t> state,
                 std::vector<Transition>& out) const override {
    inner_->enumerate(state, out);
    if (rewrite_) rewrite_(out);
  }
  void apply(std::span<std::uint8_t> state,
             const Transition& t) const override {
    if (apply_hook_ && apply_hook_(state, t)) return;
    inner_->apply(state, t);
  }
  [[nodiscard]] bool real_time_st_order() const override {
    return inner_->real_time_st_order();
  }
  [[nodiscard]] bool could_load_bottom(std::span<const std::uint8_t> state,
                                       BlockId b) const override {
    return inner_->could_load_bottom(state, b);
  }
  [[nodiscard]] std::string action_name(const Action& a) const override {
    return inner_->action_name(a);
  }

 private:
  std::unique_ptr<Protocol> inner_;
  Rewrite rewrite_;
  Params params_;
  ApplyHook apply_hook_;
};

bool has_finding(const LintReport& r, LintRule rule, LintSeverity severity,
                 const std::string& needle) {
  for (const LintFinding& f : r.findings) {
    if (f.rule == rule && f.severity == severity &&
        f.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Every error in the report belongs to `rule` — the mutant triggered
/// exactly the rule its defect deserves, not collateral noise.
bool errors_only_from(const LintReport& r, LintRule rule) {
  for (const LintFinding& f : r.findings) {
    if (f.severity == LintSeverity::Error && f.rule != rule) return false;
  }
  return r.has_errors();
}

TEST(Lint, CleanPassOverAllBundledProtocols) {
  // Under every axis model: R3's static bound and the pool a run under that
  // model allocates come from one formula, so neither may warn.
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      LintOptions opt;
      opt.observer.model = nm.model;
      const LintReport report = lint_protocol(*proto, opt);
      EXPECT_FALSE(report.has_errors())
          << entry.id << " under " << nm.name << "\n"
          << report.format();
      EXPECT_EQ(report.count(LintSeverity::Warning), 0u)
          << entry.id << " under " << nm.name << "\n"
          << report.format();
      EXPECT_GT(report.stats.transitions_checked, 0u) << entry.id;
      EXPECT_GT(report.stats.prefixes_walked, 0u) << entry.id;
    }
  }
}

TEST(Lint, MissingTrackingLabelIsR1) {
  // First ST transition loses its label to an out-of-range location.
  MutantProtocol mutant(std::make_unique<MsiBus>(2, 2, 2),
                        [](std::vector<Transition>& out) {
                          for (Transition& t : out) {
                            if (t.action.kind == Action::Kind::Store) {
                              t.loc = 200;
                              break;
                            }
                          }
                        });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R1_TrackingLabels,
                          LintSeverity::Error, "tracking label"))
      << report.format();
  EXPECT_TRUE(errors_only_from(report, LintRule::R1_TrackingLabels))
      << report.format();
}

TEST(Lint, DanglingCopySourceIsR1) {
  MutantProtocol mutant(std::make_unique<MsiBus>(2, 2, 2),
                        [](std::vector<Transition>& out) {
                          for (Transition& t : out) {
                            if (!t.copies.empty()) {
                              t.copies[0].src = 99;
                              break;
                            }
                          }
                        });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R1_TrackingLabels,
                          LintSeverity::Error, "dangling copy source"))
      << report.format();
  EXPECT_TRUE(errors_only_from(report, LintRule::R1_TrackingLabels))
      << report.format();
}

TEST(Lint, ClearSrcAsDestinationIsR1) {
  MutantProtocol mutant(std::make_unique<MsiBus>(2, 2, 2),
                        [](std::vector<Transition>& out) {
                          for (Transition& t : out) {
                            if (!t.copies.empty()) {
                              t.copies[0].dst = kClearSrc;
                              break;
                            }
                          }
                        });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R1_TrackingLabels,
                          LintSeverity::Error, "kClearSrc"))
      << report.format();
}

TEST(Lint, DoubleWrittenLocationIsR1) {
  MutantProtocol mutant(
      std::make_unique<LazyCaching>(2, 2, 2, 1, 1),
      [](std::vector<Transition>& out) {
        for (Transition& t : out) {
          if (t.copies.size() >= 2 && !t.copies.full()) {
            t.copies.push_back(CopyEntry{t.copies[0].dst, t.copies[1].src});
            break;
          }
        }
      });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R1_TrackingLabels,
                          LintSeverity::Error, "written twice"))
      << report.format();
}

TEST(Lint, LocationCountAboveMaxIsR1) {
  Protocol::Params params{2, 2, 2, /*locations=*/300};
  MutantProtocol mutant(std::make_unique<SerialMemory>(2, 2, 2), nullptr,
                        params);
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R1_TrackingLabels,
                          LintSeverity::Error, "kMaxLocations"))
      << report.format();
}

TEST(Lint, DeadLocationIsR2) {
  // A LazyCaching mutant declaring one extra location that no transition
  // ever touches: dead tracking state inflating the hashed key.
  auto inner = std::make_unique<LazyCaching>(2, 2, 2, 1, 1);
  Protocol::Params params = inner->params();
  params.locations += 1;
  MutantProtocol mutant(std::move(inner), nullptr, params);
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R2_LocationLiveness,
                          LintSeverity::Warning, "never referenced"))
      << report.format();
  EXPECT_FALSE(report.has_errors()) << report.format();
  EXPECT_EQ(report.count(LintRule::R2_LocationLiveness), 1u)
      << report.format();
}

TEST(Lint, UndersizedPoolIsR3) {
  SerialMemory proto(2, 2, 2);
  LintOptions opt;
  opt.observer.pool_size = 2;
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(has_finding(report, LintRule::R3_Bandwidth,
                          LintSeverity::Warning, "below the static"))
      << report.format();
}

TEST(Lint, UnrepresentableBandwidthIsR3) {
  SerialMemory proto(2, 2, 2);
  LintOptions opt;
  opt.observer.pool_size = kMaxBandwidth + 8;
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(has_finding(report, LintRule::R3_Bandwidth, LintSeverity::Error,
                          "kMaxBandwidth"))
      << report.format();
  EXPECT_TRUE(errors_only_from(report, LintRule::R3_Bandwidth))
      << report.format();
}

TEST(Lint, CapacityFailureNamesConfiguredBandwidth) {
  // Regression: the R4 differential walk's capacity finding must name the
  // configured descriptor bandwidth k (pool, plus the mirrored locations
  // when location_mirrored), not just that "a" pool ran dry.
  SerialMemory proto(2, 2, 2);
  LintOptions opt;
  opt.observer.pool_size = 2;
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(has_finding(report, LintRule::R3_Bandwidth,
                          LintSeverity::Warning, "k=2 (ID pool 2)"))
      << report.format();
  LintOptions mirrored = opt;
  mirrored.observer.location_mirrored = true;
  const LintReport mreport = lint_protocol(proto, mirrored);
  const std::string mk =
      "k=" + std::to_string(proto.params().locations + 2) + " (ID pool 2)";
  EXPECT_TRUE(has_finding(mreport, LintRule::R3_Bandwidth,
                          LintSeverity::Warning, mk))
      << mreport.format();
}

TEST(Lint, RuleSelectionSkipsUnselectedPasses) {
  MsiBus proto(2, 2, 2);
  LintOptions opt;
  opt.rules = lint_rule_bit(LintRule::R2_LocationLiveness) |
              lint_rule_bit(LintRule::R7_Independence);
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(report.stats.rule(LintRule::R2_LocationLiveness).ran);
  EXPECT_TRUE(report.stats.rule(LintRule::R7_Independence).ran);
  EXPECT_FALSE(report.stats.rule(LintRule::R1_TrackingLabels).ran);
  EXPECT_FALSE(report.stats.rule(LintRule::R3_Bandwidth).ran);
  EXPECT_FALSE(report.stats.rule(LintRule::R4_ObserverInterference).ran);
  for (const LintFinding& f : report.findings) {
    EXPECT_TRUE(f.rule == LintRule::R2_LocationLiveness ||
                f.rule == LintRule::R7_Independence)
        << to_string(f.rule);
  }
}

TEST(Lint, ExhaustiveModeGivesDefiniteVerdicts) {
  MsiBus proto(2, 2, 2);
  const LintReport report = lint_protocol(proto);  // defaults: exhaustive
  EXPECT_TRUE(report.stats.exhaustive);
  EXPECT_FALSE(report.stats.truncated);
  for (const LintRule r :
       {LintRule::R2_LocationLiveness, LintRule::R5_DeadTransitions,
        LintRule::R7_Independence}) {
    EXPECT_TRUE(report.stats.rule(r).ran) << to_string(r);
    EXPECT_TRUE(report.stats.rule(r).definite) << to_string(r);
  }
  // The walk/sample rules stay evidence even in exhaustive mode.
  EXPECT_FALSE(report.stats.rule(LintRule::R4_ObserverInterference).definite);
  LintOptions sampled;
  sampled.mode = LintOptions::Mode::Sampled;
  const LintReport sreport = lint_protocol(proto, sampled);
  EXPECT_FALSE(sreport.stats.exhaustive);
}

/// R4 stub: claims to observe but scribbles on the protocol state.
class ScribblingStub final : public Augmentation {
 public:
  [[nodiscard]] std::string name() const override { return "ScribblingStub"; }
  [[nodiscard]] bool step(const Transition&,
                          std::span<std::uint8_t> post_state) override {
    if (++steps_ % 5 == 0 && !post_state.empty()) post_state[0] ^= 1;
    return true;
  }
  [[nodiscard]] std::string error() const override { return {}; }

 private:
  std::size_t steps_ = 0;
};

/// R4 stub: vetoes a perfectly legal run.
class VetoingStub final : public Augmentation {
 public:
  [[nodiscard]] std::string name() const override { return "VetoingStub"; }
  [[nodiscard]] bool step(const Transition&,
                          std::span<std::uint8_t>) override {
    return ++steps_ < 4;
  }
  [[nodiscard]] std::string error() const override {
    return "synthetic veto";
  }

 private:
  std::size_t steps_ = 0;
};

TEST(Lint, StateMutatingAugmentationIsR4) {
  MsiBus proto(2, 2, 2);
  LintOptions opt;
  opt.augmentation = [](const Protocol&) {
    return std::make_unique<ScribblingStub>();
  };
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(errors_only_from(report, LintRule::R4_ObserverInterference))
      << report.format();
  // The scribble is caught as interference: either the state comparison or
  // the enabled-set comparison (on the following step) trips first.
  EXPECT_GE(report.count(LintRule::R4_ObserverInterference), 1u)
      << report.format();
}

TEST(Lint, RunVetoingAugmentationIsR4) {
  MsiBus proto(2, 2, 2);
  LintOptions opt;
  opt.augmentation = [](const Protocol&) {
    return std::make_unique<VetoingStub>();
  };
  const LintReport report = lint_protocol(proto, opt);
  EXPECT_TRUE(has_finding(report, LintRule::R4_ObserverInterference,
                          LintSeverity::Error, "rejects a legal protocol"))
      << report.format();
  EXPECT_TRUE(errors_only_from(report, LintRule::R4_ObserverInterference))
      << report.format();
}

TEST(Lint, DuplicateTransitionIsR5) {
  MutantProtocol mutant(std::make_unique<MsiBus>(2, 2, 2),
                        [](std::vector<Transition>& out) {
                          if (!out.empty()) out.push_back(out.front());
                        });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R5_DeadTransitions,
                          LintSeverity::Warning, "enumerated twice"))
      << report.format();
  EXPECT_FALSE(report.has_errors()) << report.format();
}

TEST(Lint, DeadInternalActionIsR5) {
  constexpr std::uint8_t kNopAction = 77;
  MutantProtocol mutant(
      std::make_unique<MsiBus>(2, 2, 2),
      [](std::vector<Transition>& out) {
        Transition nop;
        nop.action = internal_action(kNopAction);
        out.push_back(nop);
      },
      std::nullopt,
      [](std::span<std::uint8_t>, const Transition& t) {
        return t.action.kind == Action::Kind::Internal &&
               t.action.internal_id == kNopAction;
      });
  const LintReport report = lint_protocol(mutant);
  EXPECT_TRUE(has_finding(report, LintRule::R5_DeadTransitions,
                          LintSeverity::Warning, "dead self-loop"))
      << report.format();
}

TEST(Lint, ConstructionRejects255PlusLocations) {
  // 4 procs x 64 slots = 256 locations: location 255 would alias kClearSrc.
  EXPECT_DEATH(GetSharedToy(4, 1, 1, 64), "kMaxLocations");
}

TEST(Lint, ModelCheckerPrechecksByDefault) {
  MutantProtocol mutant(std::make_unique<MsiBus>(2, 2, 2),
                        [](std::vector<Transition>& out) {
                          for (Transition& t : out) {
                            if (t.action.kind == Action::Kind::Store) {
                              t.loc = 200;
                              break;
                            }
                          }
                        });
  McOptions opt;
  opt.max_states = 10'000;
  const McResult result = model_check(mutant, opt);
  EXPECT_EQ(result.verdict, McVerdict::LintRejected);
  EXPECT_NE(result.reason.find("lint precheck failed"), std::string::npos)
      << result.reason;
  EXPECT_NE(result.reason.find("R1"), std::string::npos) << result.reason;
  EXPECT_EQ(result.states, 0u);
}

TEST(Lint, ReportFormatting) {
  MsiBus proto(2, 2, 2);
  const LintReport report = lint_protocol(proto);
  EXPECT_NE(report.summary().find("MsiBus"), std::string::npos);
  EXPECT_NE(report.summary().find("0 error(s)"), std::string::npos);
  EXPECT_NE(report.format().find("MsiBus"), std::string::npos);
  EXPECT_EQ(to_string(LintRule::R1_TrackingLabels), "R1:tracking-labels");
  EXPECT_EQ(to_string(LintSeverity::Error), "error");
}

TEST(Lint, RegistryIdsAreUniqueAndConstructible) {
  std::size_t n = 0;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    ++n;
    const auto proto = make_registered_protocol(entry.id);
    ASSERT_NE(proto, nullptr) << entry.id;
    EXPECT_FALSE(proto->name().empty());
  }
  EXPECT_GE(n, 6u);  // the six bundled families, plus variants
  EXPECT_EQ(make_registered_protocol("no_such_protocol"), nullptr);
}

}  // namespace
}  // namespace scv
