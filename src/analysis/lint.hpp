// Static protocol analysis (linting) for the Section 4 observer
// construction.
//
// The observer of Theorem 4.1 is only a *witness* observer when the
// protocol's tracking metadata is well-formed: every LD/ST transition must
// name a real storage location (the function f of Section 4.1), copy labels
// must move values between real locations, and the augmentation must not
// constrain the protocol (the non-interference side condition of
// Theorem 3.1).  None of that is visible to the type system — a protocol
// with a dangling LocId compiles fine and only misbehaves (or aborts) deep
// inside a model-checking run.
//
// lint_protocol() analyzes a protocol's per-transition metadata over its
// control skeleton — the ProtocolSkeleton IR of DESIGN.md §15, built by
// exhaustively enumerating the protocol-only state graph (which is tiny
// next to the product space the model checker explores).  In the default
// Exhaustive mode the skeleton covers every reachable protocol state, so
// R2/R5/R7 verdicts are definite rather than bounded evidence; Sampled
// mode caps the build for use as a cheap precheck.  It emits a
// severity-ranked LintReport over eight rule families:
//
//   R1 tracking-labels   — LD/ST labels in range, copy entries reference
//                          real locations, no double-written destination,
//                          kClearSrc only as a source, serialize_loc sane,
//                          location count within the LocId alphabet;
//   R2 location-liveness — locations written but never read (dead tracking
//                          state inflating the hashed key), locations read
//                          but never writable, and (exhaustive mode) writes
//                          whose value is dead along every outgoing path of
//                          the liveness fixpoint;
//   R3 bandwidth         — the static Section 4.4 node bound vs the
//                          configured descriptor bandwidth k, tightened in
//                          exhaustive mode by the occupancy fixpoint's
//                          maximal simultaneously-written location count;
//   R4 non-interference  — differential check that augmenting sampled
//                          prefixes with the Observer never changes the
//                          enabled-transition set (and never rejects a run
//                          the bare protocol can take);
//   R5 dead-transitions  — duplicate or shadowed transitions and no-op
//                          internal actions, decided over the full CSR edge
//                          list in exhaustive mode;
//   R6 processor-symmetry— a protocol declaring processor_symmetric() must
//                          actually commute with processor renaming
//                          (π(apply(s,t)) == apply(π(s), π(t)), equivariant
//                          signatures, bijective permute_loc); a failing
//                          declaration is a warning — the model checker
//                          falls back to identity canonicalization rather
//                          than merging non-equivalent states;
//   R7 independence      — a protocol opting into partial-order reduction
//                          (por_enabled()) declares an independence relation
//                          over transitions; every pair declared independent
//                          on a reachable co-enabled state must be
//                          symmetric, mutually non-disabling, and commute to
//                          the same protocol state (the diamond of DESIGN.md
//                          §14); exhaustive mode decides this for *every*
//                          reachable co-enabled pair via the inferred
//                          conflict relation of §15; a failing declaration
//                          is a warning — the model checker's own pre-run
//                          self-check vetoes POR and falls back to full
//                          expansion;
//   R8 footprint-imprecision — the declared POR footprints are sound but
//                          over-coarse: a transition shape proven invisible
//                          and single-processor by the exhaustive inference
//                          is declared visible (or everything-conflicts),
//                          needlessly disqualifying it from ample sets; a
//                          note, since coarseness costs states, not
//                          soundness.
//
// Exhaustive mode is sound *and complete* over the protocol-state half of
// each obligation whenever stats.truncated is false; Sampled mode (and a
// truncated exhaustive run) degrades to "sound for errors on what it
// sampled".  R4/R6 remain walk/sample-based in both modes — their
// obligations quantify over augmented runs and permutations, not skeleton
// states — and the product-level self-checks back them up.  See DESIGN.md
// §10 for the soundness argument relative to Theorem 3.1 and §15 for the
// skeleton IR and fixpoint engines.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "observer/observer.hpp"
#include "protocol/protocol.hpp"

namespace scv {

enum class LintRule : std::uint8_t {
  R1_TrackingLabels,
  R2_LocationLiveness,
  R3_Bandwidth,
  R4_ObserverInterference,
  R5_DeadTransitions,
  R6_ProcessorSymmetry,
  R7_Independence,
  R8_FootprintImprecision,
};

inline constexpr std::size_t kNumLintRules = 8;

/// Bit for `r` in a LintOptions::rules mask.
[[nodiscard]] constexpr std::uint32_t lint_rule_bit(LintRule r) {
  return 1u << static_cast<std::uint8_t>(r);
}
inline constexpr std::uint32_t kAllLintRules =
    (1u << kNumLintRules) - 1;

enum class LintSeverity : std::uint8_t { Note, Warning, Error };

[[nodiscard]] std::string to_string(LintRule r);
[[nodiscard]] std::string to_string(LintSeverity s);
/// Parses "R1".."R8" (or a full id like "R2:location-liveness"); returns
/// false on anything else.  The seam behind scv_lint --rule.
[[nodiscard]] bool parse_lint_rule(const std::string& text, LintRule& out);

struct LintFinding {
  LintRule rule = LintRule::R1_TrackingLabels;
  LintSeverity severity = LintSeverity::Note;
  std::string message;
};

/// Per-rule coverage: what one rule pass actually examined, so a "clean"
/// report is never silently partial.
struct RuleCoverage {
  bool ran = false;       ///< pass executed (selected and applicable)
  bool definite = false;  ///< verdict is exhaustive, not bounded evidence
  std::size_t states = 0;       ///< skeleton states the pass consulted
  std::size_t checked = 0;      ///< rule-specific units (transitions, pairs,
                                ///< locations, prefixes — see scv_lint)
};

/// How much of the protocol the linter actually looked at — reported so a
/// clean bill of health can be weighed against its coverage.
struct LintStats {
  std::size_t states_sampled = 0;       ///< skeleton states enumerated
  std::size_t transitions_checked = 0;  ///< skeleton edges enumerated
  std::size_t prefixes_walked = 0;      ///< R4 differential prefixes
  /// True when the skeleton build hit a cap before exhausting the
  /// protocol's reachable control skeleton.  In exhaustive mode this means
  /// the report's "definite" claims silently degraded to bounded evidence —
  /// scv_lint --exhaustive treats it as a failure.
  bool truncated = false;
  /// Report produced in exhaustive mode (LintOptions::Mode::Exhaustive).
  bool exhaustive = false;
  RuleCoverage coverage[kNumLintRules];

  [[nodiscard]] const RuleCoverage& rule(LintRule r) const {
    return coverage[static_cast<std::uint8_t>(r)];
  }
};

struct LintReport {
  std::string protocol;
  /// Sorted most severe first, then by rule.
  std::vector<LintFinding> findings;
  /// Rules whose findings hit the per-rule cap: `findings` holds only the
  /// first few plus a suppression note, so consumers (scv_lint --json)
  /// report these rule IDs rather than pretending the list is complete.
  std::vector<LintRule> suppressed_rules;
  LintStats stats;

  [[nodiscard]] std::size_t count(LintSeverity s) const;
  [[nodiscard]] std::size_t count(LintRule r) const;
  [[nodiscard]] bool has_errors() const {
    return count(LintSeverity::Error) > 0;
  }
  [[nodiscard]] bool clean() const { return findings.empty(); }

  /// One line: "MsiBus: 0 errors, 1 warning (412 states, 3310 transitions,
  /// exhaustive)".
  [[nodiscard]] std::string summary() const;
  /// Full multi-line report (summary + one line per finding).
  [[nodiscard]] std::string format() const;
};

/// The augmentation seam for R4.  A sound augmentation observes transitions
/// without writing the protocol state and never fails on a run the bare
/// protocol can take; the default implementation wraps the real Observer.
/// Tests inject misbehaving stubs to prove the differential check bites.
class Augmentation {
 public:
  virtual ~Augmentation() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Observes one applied transition; `post_state` is the protocol state
  /// after apply.  Returns false to report failure (see error()).
  [[nodiscard]] virtual bool step(const Transition& t,
                                  std::span<std::uint8_t> post_state) = 0;
  [[nodiscard]] virtual std::string error() const = 0;
  /// True when the last failure was a capacity limit (e.g. the observer's
  /// ID pool ran dry) rather than interference.  Capacity failures are
  /// reported under R3 as warnings — an undersized pool is a configuration
  /// problem the model checker diagnoses precisely (BandwidthExceeded), not
  /// a soundness violation of the augmentation.
  [[nodiscard]] virtual bool failure_is_capacity() const { return false; }
};

struct LintOptions {
  enum class Mode : std::uint8_t {
    /// Build the full reachable control skeleton (up to the safety cap of
    /// SkeletonBuildOptions, 2^21 states) and give definite verdicts.  The
    /// default: protocol-only graphs are small.  Hitting the cap marks the
    /// report truncated — exhaustive analysis that isn't exhaustive is
    /// reported, never silent.
    Exhaustive,
    /// Cap the skeleton at 2048 states and depth 64 for a cheap bounded
    /// precheck (the model checker's lint precheck uses this).
    Sampled,
  };
  Mode mode = Mode::Exhaustive;

  /// Bitmask of rules to run (lint_rule_bit).  Unselected rules are marked
  /// coverage[].ran == false, not silently clean.
  std::uint32_t rules = kAllLintRules;

  /// Observer configuration the protocol will be verified under; R3/R4
  /// check against exactly this configuration.
  ObserverConfig observer{};
  /// Augmentation factory for R4; null = wrap a real Observer.
  std::function<std::unique_ptr<Augmentation>(const Protocol&)> augmentation;
};

/// Runs the selected lint rules on `protocol` and returns the ranked report.
[[nodiscard]] LintReport lint_protocol(const Protocol& protocol,
                                       const LintOptions& options = {});

struct SymmetryCheckResult {
  bool declared = false;    ///< protocol declares processor_symmetric()
  bool applicable = false;  ///< declared and 2 <= procs <= ProcPerm::kMax
  bool ok = true;           ///< checks passed (vacuously when !applicable)
  std::size_t states_checked = 0;
  std::size_t transitions_checked = 0;
  std::string detail;  ///< first violation, empty when ok
};

/// Protocol-level processor-symmetry commutation check (the model
/// checker's pre-reduction self-check; lint rule R6 runs the same per-state
/// checks over a strided skeleton sample).  On a deterministic sample walk
/// (48 states, at most 192 steps, restarting from the initial state at
/// dead ends) it verifies, for each transposition τ (transpositions
/// generate S_p):
///   * the τ-image of each enabled transition is enabled in the τ-image of
///     the state (multiset equality of serialized transitions);
///   * stepping commutes: apply(τ(s), τ(t)) == τ(apply(s, t)) byte-for-byte;
///   * proc_signature is equivariant: sig(τ(s), τ(p)) == sig(s, p);
/// plus, once, that permute_loc is a bijection on the location alphabet.
/// Sampling makes the check one-sided: a failure is definite, a pass is
/// evidence (the product-level exploration self-check backs it up).
[[nodiscard]] SymmetryCheckResult check_processor_symmetry(
    const Protocol& protocol);

}  // namespace scv
