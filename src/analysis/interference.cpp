// R4: observer non-interference (the side condition of Theorem 3.1).  The
// observer automaton must be a pure annotator: composing it with the
// protocol may never enable, disable, or alter a protocol transition, and
// it may never reject a run the bare protocol can take (a rejection aborts
// the product exploration, which *is* a constraint).
//
// The check is differential and bounded: walk pseudo-random prefixes of the
// protocol twice — bare, and augmented — and require at every step that
// (a) the augmented copy's protocol state is bit-identical to the bare one,
// (b) the enabled-transition sets coincide, and (c) the augmentation
// accepts the step.  For the real Observer (the default augmentation),
// (a)/(b) hold by construction unless a protocol hides mutable state behind
// its const interface; (c) fails exactly when the tracking labels lie.
// Running out of configured bandwidth on a legal prefix is *not*
// interference — it lands under R3 as a warning (see below).
#include <memory>
#include <string>
#include <vector>

#include "analysis/internal.hpp"
#include "util/rng.hpp"

namespace scv::analysis {
namespace {

/// The differential prefixes: how many, how long, and the seed each
/// prefix's walk derives its own from.
constexpr std::size_t kPrefixes = 8;
constexpr std::size_t kPrefixSteps = 64;
constexpr std::uint64_t kPrefixSeed = 0x11A7u;

/// Default augmentation: the real witness observer.
class ObserverAugmentation final : public Augmentation {
 public:
  explicit ObserverAugmentation(const Protocol& proto,
                                const ObserverConfig& cfg)
      : observer_(proto, cfg) {}

  [[nodiscard]] std::string name() const override { return "Observer"; }

  [[nodiscard]] bool step(const Transition& t,
                          std::span<std::uint8_t> post_state) override {
    scratch_.clear();
    const ObserverStatus st = observer_.step(t, post_state, scratch_);
    if (st == ObserverStatus::Ok) return true;
    capacity_ = st == ObserverStatus::BandwidthExceeded;
    error_ = (capacity_ ? std::string("BandwidthExceeded: ")
                        : std::string("TrackingInconsistent: ")) +
             observer_.error();
    return false;
  }

  [[nodiscard]] std::string error() const override { return error_; }
  [[nodiscard]] bool failure_is_capacity() const override {
    return capacity_;
  }

 private:
  Observer observer_;
  std::vector<Symbol> scratch_;
  std::string error_;
  bool capacity_ = false;
};

/// Byte-compares two enumerate() results, order-sensitively: enumerate() is
/// a pure function of the state, so any divergence (count, order, content)
/// means the augmented run no longer sees the bare protocol's choices.
bool same_enabled(const std::vector<Transition>& a,
                  const std::vector<Transition>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].action == b[i].action) || a[i].loc != b[i].loc ||
        a[i].serialize_loc != b[i].serialize_loc ||
        a[i].copies.size() != b[i].copies.size()) {
      return false;
    }
    for (std::size_t c = 0; c < a[i].copies.size(); ++c) {
      if (a[i].copies[c].dst != b[i].copies[c].dst ||
          a[i].copies[c].src != b[i].copies[c].src) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void check_non_interference(LintContext& ctx) {
  if (!ctx.rule_selected(LintRule::R4_ObserverInterference)) return;
  const Protocol& proto = *ctx.protocol;
  const LintOptions& opt = *ctx.options;
  RuleCoverage& cov = ctx.coverage(LintRule::R4_ObserverInterference);
  cov.ran = true;
  // Differential walks are inherently sampled: the obligation quantifies
  // over all augmented runs, which no skeleton enumeration covers.
  cov.definite = false;

  // Constructing a real Observer aborts beyond its capacity limits; report
  // instead of crashing the linter (verification would be impossible too).
  const auto& pr = proto.params();
  if (!opt.augmentation &&
      (pr.procs > Observer::kMaxObsProcs ||
       pr.blocks > Observer::kMaxObsBlocks || pr.locations > kMaxLocations)) {
    ctx.add(LintRule::R4_ObserverInterference, LintSeverity::Error,
            "protocol dimensions (p=" + std::to_string(pr.procs) +
                ", b=" + std::to_string(pr.blocks) +
                ", L=" + std::to_string(pr.locations) +
                ") exceed the observer's capacity; the witness observer "
                "cannot be constructed",
            "observer-capacity");
    return;
  }

  for (std::size_t walk = 0; walk < kPrefixes; ++walk) {
    Xoshiro256 rng(kPrefixSeed + 0x9e37 * (walk + 1));
    std::vector<std::uint8_t> bare(proto.state_size());
    proto.initial_state(bare);
    std::vector<std::uint8_t> aug = bare;

    std::unique_ptr<Augmentation> augmentation =
        opt.augmentation ? opt.augmentation(proto)
                         : std::make_unique<ObserverAugmentation>(
                               proto, opt.observer);

    std::vector<Transition> bare_enabled;
    std::vector<Transition> aug_enabled;
    ++ctx.report->stats.prefixes_walked;
    ++cov.checked;

    for (std::size_t step = 0; step < kPrefixSteps; ++step) {
      bare_enabled.clear();
      proto.enumerate(bare, bare_enabled);
      aug_enabled.clear();
      proto.enumerate(aug, aug_enabled);
      if (!same_enabled(bare_enabled, aug_enabled)) {
        ctx.add(LintRule::R4_ObserverInterference, LintSeverity::Error,
                augmentation->name() +
                    " augmentation changed the enabled-transition set at "
                    "step " +
                    std::to_string(step) + " of prefix " +
                    std::to_string(walk) +
                    "; the observer construction is only sound for pure "
                    "annotators (Theorem 3.1)",
                "enabled-diverged");
        return;
      }
      if (bare_enabled.empty()) break;

      // The trace-testing walk's LD/ST bias: the interesting tracking
      // behaviour needs LD/ST traffic.
      const Transition& chosen =
          bare_enabled[pick_walk_transition(bare_enabled, rng)];

      proto.apply(bare, chosen);
      proto.apply(aug, chosen);
      if (!augmentation->step(chosen, aug)) {
        if (augmentation->failure_is_capacity()) {
          // Not interference: the configured bandwidth ran out on a legal
          // prefix.  R3's static bound already warns about this shape; the
          // model checker reports it precisely (BandwidthExceeded), so a
          // warning with the dynamic evidence is the honest verdict.  The
          // finding names the configured bandwidth k — the number the user
          // must raise — not just the step it died at.
          const auto [pool, k] =
              Observer::pool_and_bandwidth(proto, opt.observer);
          ctx.add(LintRule::R3_Bandwidth, LintSeverity::Warning,
                  augmentation->name() +
                      " exhausted its configured bandwidth k=" +
                      std::to_string(k) + " (ID pool " +
                      std::to_string(pool) + ") on a sampled prefix (" +
                      augmentation->error() + " at step " +
                      std::to_string(step) + " of prefix " +
                      std::to_string(walk) +
                      "); verification under this configuration will abort "
                      "with BandwidthExceeded",
                  "capacity-on-prefix");
          break;  // this walk's observer is dead; try the next prefix
        }
        ctx.add(LintRule::R4_ObserverInterference, LintSeverity::Error,
                augmentation->name() + " rejects a legal protocol prefix (" +
                    augmentation->error() + " on " +
                    proto.action_name(chosen.action) + ", step " +
                    std::to_string(step) + " of prefix " +
                    std::to_string(walk) +
                    "); the product automaton would constrain the protocol",
                "augmentation-rejects");
        return;
      }
      if (aug != bare) {
        ctx.add(LintRule::R4_ObserverInterference, LintSeverity::Error,
                augmentation->name() +
                    " augmentation mutated the protocol state at step " +
                    std::to_string(step) + " of prefix " +
                    std::to_string(walk) +
                    "; an observer must never write protocol state",
                "state-mutated");
        return;
      }
    }
  }
}

}  // namespace scv::analysis
