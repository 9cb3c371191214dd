#include "mc/model_checker.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>

#include "analysis/footprint_infer.hpp"
#include "analysis/lint.hpp"
#include "analysis/skeleton.hpp"
#include "checker/sc_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "mc/level_engine.hpp"
#include "mc/por.hpp"
#include "mc/product.hpp"
#include "util/assert.hpp"

namespace scv {

std::string to_string(McVerdict v) {
  switch (v) {
    case McVerdict::Verified: return "Verified";
    case McVerdict::Violation: return "Violation";
    case McVerdict::BandwidthExceeded: return "BandwidthExceeded";
    case McVerdict::TrackingInconsistent: return "TrackingInconsistent";
    case McVerdict::StateLimit: return "StateLimit";
    case McVerdict::LintRejected: return "LintRejected";
  }
  return "?";
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << to_string(verdict) << ": " << states << " states, " << transitions
     << " transitions, depth " << depth << ", "
     << (seconds > 0 ? static_cast<std::size_t>(
                           static_cast<double>(transitions) / seconds)
                     : 0)
     << " trans/s";
  if (preemption_bounded) os << " [preemption-bounded]";
  if (!reason.empty()) os << " — " << reason;
  return os.str();
}

namespace {

/// Replays a failing run into `result`: each step's action name and
/// emitted observer symbols, the failure reason, the recorded trace when
/// McOptions::record_counterexample asks for it (a recorder sink on the
/// same pipeline), and for a violation one cycle of the run's constraint
/// graph.
///
/// `run.path` holds transition *indices*: ti_i is the position of step i's
/// transition t_i in the enumerate() order of the state exploration
/// expanded, s_{i-1}.  Exploration canonicalized every successor before
/// storing it, so under symmetry reduction s_{i-1} is an *orbit
/// representative*, not the concrete state the un-permuted run reaches.
/// The replay therefore drives two products:
///
///   * a shadow product s that repeats exploration's exact sequence —
///     enumerate s_{i-1} and take t_i at ti_i, step with t_i, canonicalize
///     obtaining π_i — which re-derives each transition and tracks the
///     cumulative renaming σ_i = σ_{i-1}·π_i with s_i = σ_i(c_i);
///   * the concrete product c, stepped with u_i = σ_{i-1}⁻¹(t_i), which is
///     a genuine run of the protocol from its true initial state (this is
///     what gets recorded — the trace re-checks offline like any other).
///
/// σ exists because processor permutations are bisimulations: t enabled in
/// σ(c) implies σ⁻¹(t) enabled in c with step(c, σ⁻¹(t)) = σ⁻¹(step(σ(c),
/// t)).  The shadow is byte-faithful to exploration (same deterministic
/// construction, steps and canonicalizer), so its enumerations and the π_i
/// match the ones exploration saw.  Without symmetry σ stays the identity
/// and the shadow runs in step with c.  The final failing step needs no
/// shadow step.
void export_counterexample(const Protocol& proto, const McOptions& opt,
                           const LevelRun& run, McResult& result) {
  // Only a product with an observer and checker can fail a step.
  Product p(proto, opt.observer, true);
  RunRecorder recorder;
  if (opt.record_counterexample) p.add_sink(&recorder);
  std::vector<Symbol> symbols;

  ProcCanonicalizer canon(proto, opt.symmetry_reduction);
  Product shadow(proto, opt.observer, true);
  std::vector<Symbol> shadow_symbols;
  std::vector<Transition> enabled;
  KeyScratch shadow_key;
  ProcPerm sigma = ProcPerm::identity(proto.params().procs);
  if (canon.active()) canon.canonicalize_key(shadow, shadow_key, &sigma);

  const std::vector<std::uint32_t>& path = run.path;
  for (std::size_t i = 0; i < path.size(); ++i) {
    enabled.clear();
    shadow.enumerate(enabled);
    SCV_ASSERT(path[i] < enabled.size());
    const Transition& t = enabled[path[i]];
    const Transition u =
        canon.active() ? proto.permute_transition(t, sigma.inverse()) : t;
    const std::string action = proto.action_name(u.action);
    const StepOutcome outcome = p.step(u, symbols, action);
    result.counterexample.push_back({action, symbols});
    if (outcome != StepOutcome::Ok) {
      result.reason = p.failure_reason(outcome);
      break;
    }
    if (i + 1 < path.size()) {
      shadow.step(t, shadow_symbols);
      if (canon.active()) {
        ProcPerm pi;
        canon.canonicalize_key(shadow, shadow_key, &pi);
        sigma = sigma.then(pi);
      }
    }
  }

  if (opt.record_counterexample) {
    RunTrace trace;
    trace.protocol = proto.name();
    trace.checker = p.checker().config();
    trace.verdict = to_run_verdict(run.failure);
    trace.reason = result.reason;
    trace.steps = recorder.take();
    result.counterexample_trace = std::move(trace);
  }

  // For cycle rejections, expand the full emitted descriptor (which is a
  // valid graph description regardless of cycles) and extract a concrete
  // cycle — the Lemma 3.1 witness that the trace is not SC.
  if (result.verdict == McVerdict::Violation) {
    Descriptor d;
    d.k = p.checker().config().k;
    for (const CounterexampleStep& step : result.counterexample) {
      d.symbols.insert(d.symbols.end(), step.emitted.begin(),
                       step.emitted.end());
    }
    const ExpansionResult expansion = expand(d);
    if (expansion.graph.has_value()) {
      if (const auto cyc = expansion.graph->graph.find_cycle()) {
        for (const std::uint32_t node : *cyc) {
          const auto& label = expansion.graph->node_labels[node];
          result.cycle.push_back(
              std::to_string(node + 1) + ":" +
              (label ? to_string(*label) : std::string("?")));
        }
      }
    }
  }
}

/// The deterministic sample walk both product self-checks share: from the
/// initial state, up to 24 states along a fixed pseudo-random path (a dead
/// end or a failing step ends it).  `check(trans, sample)` sees each state,
/// in `cur`, with its enabled transitions and 1-based sample number;
/// returning false stops the walk, and sample_walk returns false.
template <class Check>
bool sample_walk(Product& cur, Check&& check) {
  constexpr std::size_t kSamples = 24;
  constexpr std::size_t kMaxSteps = 96;
  std::vector<Transition> trans;
  std::vector<Symbol> symbols;
  std::size_t sampled = 0;
  for (std::size_t step = 0; step < kMaxSteps && sampled < kSamples; ++step) {
    trans.clear();
    cur.enumerate(trans);
    ++sampled;
    if (!check(trans, sampled)) return false;
    if (trans.empty()) break;
    const Transition& t = trans[(step * 13 + 7) % trans.size()];
    if (cur.step(t, symbols) != StepOutcome::Ok) break;
  }
  return true;
}

/// Product-level symmetry self-check: on the sample walk, verifies for
/// every transposition τ (transpositions generate S_p) that
///   * a state and its τ-image canonicalize to the same key (same orbit,
///     same representative), and
///   * permute-then-step equals step-then-permute up to canonicalization:
///     canon(step(τ(s), τ(t))) == canon(step(s, t)) for every enabled t.
/// This exercises the *whole* product — protocol state, observer chains and
/// tracker, checker bookkeeping — so a permute hook that forgets one
/// component's per-processor state is caught here before the reduction can
/// merge non-equivalent states.  `detail` receives the first violation.
bool product_symmetry_ok(const Protocol& proto, const McOptions& opt,
                         std::string& detail) {
  const std::size_t procs = proto.params().procs;
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  Product perm_cur(proto, opt.observer, with_obs);
  Product succ(proto, opt.observer, with_obs);
  Product perm_succ(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, true);
  KeyScratch ka;
  KeyScratch kb;
  std::vector<Symbol> symbols;

  const auto canon_keys_equal = [&](Product& x, Product& y) {
    canon.canonicalize_key(x, ka);
    canon.canonicalize_key(y, kb);
    return std::ranges::equal(ka.w.data(), kb.w.data());
  };
  return sample_walk(cur, [&](const std::vector<Transition>& trans,
                              std::size_t sampled) {
    for (std::size_t a = 0; a + 1 < procs; ++a) {
      for (std::size_t b = a + 1; b < procs; ++b) {
        const ProcPerm tau =
            ProcPerm::transposition(procs, static_cast<ProcId>(a),
                                    static_cast<ProcId>(b));
        perm_cur.assign_from(cur);
        perm_cur.permute_procs(tau);
        succ.assign_from(cur);
        perm_succ.assign_from(perm_cur);
        if (!canon_keys_equal(succ, perm_succ)) {
          detail = "state and its (" + std::to_string(a) + " " +
                   std::to_string(b) +
                   ") image canonicalize to different keys at sample " +
                   std::to_string(sampled);
          return false;
        }
        for (const Transition& t : trans) {
          succ.assign_from(cur);
          if (succ.step(t, symbols) != StepOutcome::Ok) continue;
          perm_succ.assign_from(perm_cur);
          const Transition tp = proto.permute_transition(t, tau);
          if (perm_succ.step(tp, symbols) != StepOutcome::Ok) {
            detail = "permuted transition '" + proto.action_name(tp.action) +
                     "' not cleanly steppable in the (" + std::to_string(a) +
                     " " + std::to_string(b) + ") image at sample " +
                     std::to_string(sampled);
            return false;
          }
          if (!canon_keys_equal(succ, perm_succ)) {
            detail = "permute-then-step diverges from step-then-permute on '" +
                     proto.action_name(t.action) + "' under (" +
                     std::to_string(a) + " " + std::to_string(b) +
                     ") at sample " + std::to_string(sampled);
            return false;
          }
        }
      }
    }
    return true;
  });
}

/// Product-level independence self-check (the POR analogue of
/// product_symmetry_ok): on the sample walk, verifies that the declared
/// relation is symmetric, that every declared-independent co-enabled pair
/// commutes through the whole product (protocol state, observer tracking,
/// checker bookkeeping — independence_commutes), and that every ample
/// candidate (invisible singleton-processor footprint) is a stutter:
/// stepping it emits no descriptor symbols.  `detail` receives the first
/// violation.
bool product_por_ok(const Protocol& proto, const McOptions& opt,
                    const PorOracle& oracle, std::string& detail) {
  const bool with_obs = !opt.protocol_only;
  Product cur(proto, opt.observer, with_obs);
  CommuteScratch scratch(proto, opt.observer, with_obs);
  ProcCanonicalizer canon(proto, opt.symmetry_reduction);

  return sample_walk(cur, [&](const std::vector<Transition>& trans,
                              std::size_t sampled) {
    for (std::size_t i = 0; i < trans.size(); ++i) {
      const PorFootprint fp = oracle.footprint(trans[i]);
      if (!fp.visible && std::has_single_bit(fp.procs) &&
          !cur.transition_visible(trans[i])) {
        scratch.a.assign_from(cur);
        if (scratch.a.step(trans[i], scratch.symbols) == StepOutcome::Ok &&
            !scratch.symbols.empty()) {
          detail = "invisible-footprint transition '" +
                   proto.action_name(trans[i].action) +
                   "' emits descriptor symbols at sample " +
                   std::to_string(sampled);
          return false;
        }
      }
      for (std::size_t j = i + 1; j < trans.size(); ++j) {
        const bool ij = oracle.independent(trans[i], trans[j]);
        const bool ji = oracle.independent(trans[j], trans[i]);
        if (ij != ji) {
          detail = "independence relation is asymmetric on ('" +
                   proto.action_name(trans[i].action) + "', '" +
                   proto.action_name(trans[j].action) + "') at sample " +
                   std::to_string(sampled);
          return false;
        }
        if (!ij) continue;
        if (!independence_commutes(proto, canon, cur, trans[i], trans[j],
                                   scratch, detail)) {
          detail += " at sample " + std::to_string(sampled);
          return false;
        }
      }
    }
    return true;
  });
}

/// PorOracle backed by the verified static inference (DESIGN.md §15):
/// builds the protocol's control skeleton once, runs the exhaustive
/// invisibility / commutation sweep, and serves footprints and independence
/// by shape lookup.  Independence is deliberately restricted to pairs with
/// at least one ample *candidate* (inferred-invisible, singleton processor
/// support) on a side: the raw relation also proves visible protocol-level
/// commutations whose product executions diverge (observer ID allocation is
/// order-sensitive), and product_por_ok validates every pair the oracle
/// calls independent at the product level.  Ample selection only ever
/// consults pairs anchored by a candidate, so the restriction costs no
/// reduction.
class InferredPorOracle final : public PorOracle {
 public:
  explicit InferredPorOracle(const Protocol& proto)
      : skeleton_(analysis::build_skeleton(proto)),
        inference_(analysis::infer_por(skeleton_)) {
    candidate_.resize(skeleton_.shapes.size(), 0);
    for (std::size_t s = 0; s < skeleton_.shapes.size(); ++s) {
      candidate_[s] = inference_.invisible[s] &&
                              std::has_single_bit(inference_.proc_support[s])
                          ? 1
                          : 0;
    }
  }

  [[nodiscard]] bool usable() const { return inference_.usable; }
  [[nodiscard]] const std::string& note() const { return inference_.note; }

  [[nodiscard]] bool por_enabled() const override {
    return inference_.usable;
  }

  [[nodiscard]] PorFootprint footprint(const Transition& t) const override {
    const std::uint32_t s = skeleton_.find_shape(t);
    // Unknown shape (should not happen on a complete skeleton): fall back
    // to the everything-conflicts footprint, which reduces nothing.
    if (s == analysis::ProtocolSkeleton::npos) return PorFootprint{};
    return inference_.footprints[s];
  }

  [[nodiscard]] bool independent(const Transition& a,
                                 const Transition& b) const override {
    const std::uint32_t i = skeleton_.find_shape(a);
    const std::uint32_t j = skeleton_.find_shape(b);
    if (i == analysis::ProtocolSkeleton::npos ||
        j == analysis::ProtocolSkeleton::npos) {
      return false;
    }
    if (candidate_[i] == 0 && candidate_[j] == 0) return false;
    return inference_.independent(i, j);
  }

 private:
  analysis::ProtocolSkeleton skeleton_;
  analysis::InferredPor inference_;
  std::vector<char> candidate_;
};

}  // namespace

McResult model_check(const Protocol& protocol, const McOptions& options) {
  SCV_EXPECTS(options.threads >= 1);
  if (!options.protocol_only) {
    // Fail-fast static precheck: malformed tracking metadata would abort or
    // mislead exploration much later; reject it in milliseconds instead.
    // Sampled mode keeps the bounded-walk cost (the exhaustive skeleton
    // build would add ~hundreds of ms per model_check call on the larger
    // protocols); run lint_protocol / tools/scv_lint for definite verdicts.
    // Only R1, R3 and R4 report errors, and the reason quotes the warning
    // count of R2 and R5.  R6-R8 only warn, and the self-checks below decide
    // what R6 and R7 would, so the precheck leaves them out.
    LintOptions lopt;
    lopt.mode = LintOptions::Mode::Sampled;
    lopt.rules = kAllLintRules &
                 ~(lint_rule_bit(LintRule::R6_ProcessorSymmetry) |
                   lint_rule_bit(LintRule::R7_Independence) |
                   lint_rule_bit(LintRule::R8_FootprintImprecision));
    lopt.observer = options.observer;
    const LintReport lint = lint_protocol(protocol, lopt);
    if (lint.has_errors()) {
      McResult result;
      result.verdict = McVerdict::LintRejected;
      result.reason = "lint precheck failed — " + lint.summary();
      for (const LintFinding& f : lint.findings) {
        if (f.severity == LintSeverity::Error) {
          result.reason += "; [" + to_string(f.rule) + "] " + f.message;
        }
      }
      return result;
    }
  }

  // Symmetry self-check: a declared symmetry is trusted only after the
  // protocol-level commutation check (the lint R6 rule's engine) and the
  // product-level one both pass; otherwise fall back to identity
  // canonicalization — a slower but sound exploration — and say why.
  McOptions opt = options;
  std::string symmetry_note;
  // Bounded preemption strips both reductions before their self-checks
  // spend time validating them: orbit canonicalization merges states whose
  // scheduling context (last processor, remaining budget) differs, and
  // ample deferral reorders exactly the processor alternation the budget
  // counts.  The level engine re-derives the same gates defensively.
  const bool preemption_bounded = opt.observer.model.bounded_preemption();
  if (preemption_bounded && opt.symmetry_reduction) {
    opt.symmetry_reduction = false;
    symmetry_note =
        "bounded preemption keys states by their scheduling context, which "
        "orbit canonicalization does not preserve; exploring without "
        "symmetry reduction";
  }
  const auto& pr = protocol.params();
  if (opt.symmetry_reduction && protocol.processor_symmetric() &&
      pr.procs >= 2 && pr.procs <= ProcPerm::kMax) {
    const SymmetryCheckResult sym = check_processor_symmetry(protocol);
    std::string detail;
    if (!sym.ok) {
      detail = sym.detail;
    } else {
      product_symmetry_ok(protocol, opt, detail);
    }
    if (!detail.empty()) {
      opt.symmetry_reduction = false;
      symmetry_note =
          "declared processor symmetry failed the commutation self-check (" +
          detail + "); exploring without orbit canonicalization";
    }
  }

  // POR oracle selection: the protocol's declared hooks by default; the
  // verified static inference (DESIGN.md §15) when requested and usable.
  // An unusable inference falls back to the declared hooks (which may be
  // disabled — then POR is simply off), never to an unverified relation.
  DeclaredPorOracle declared(protocol);
  const PorOracle* oracle = &declared;
  std::unique_ptr<InferredPorOracle> inferred;
  std::string por_provenance = "declared";
  std::string por_note;
  if (preemption_bounded && opt.partial_order_reduction) {
    opt.partial_order_reduction = false;
    por_note =
        "bounded preemption counts processor alternation, which ample-set "
        "deferral reorders; exploring without partial-order reduction";
  }
  if (opt.partial_order_reduction && !opt.protocol_only &&
      opt.inferred_footprints) {
    inferred = std::make_unique<InferredPorOracle>(protocol);
    if (inferred->usable()) {
      oracle = inferred.get();
      por_provenance = "inferred";
    } else {
      por_note = "footprint inference unusable (" + inferred->note() +
                 "); falling back to the declared POR hooks";
    }
  }

  // POR self-check: the oracle's independence relation is trusted only
  // after the product-level commutation walk passes; otherwise fall back to
  // full expansion — slower but sound — and say why.  (The engine keeps
  // cross-validating ample sets on sampled reachable states during the
  // run; see mc/level_engine.hpp.)
  if (opt.partial_order_reduction && !opt.protocol_only &&
      oracle->por_enabled()) {
    std::string detail;
    if (!product_por_ok(protocol, opt, *oracle, detail)) {
      opt.partial_order_reduction = false;
      por_note = por_provenance +
                 " independence failed the commutation self-check (" + detail +
                 "); exploring without partial-order reduction";
    }
  }

  LevelRun run = explore_levels(protocol, opt, *oracle);
  McResult& result = run.result;
  if (run.failure != StepOutcome::Ok) {
    export_counterexample(protocol, opt, run, result);
  }
  result.symmetry_note = std::move(symmetry_note);
  if (result.por_note.empty()) result.por_note = std::move(por_note);
  result.por_provenance = result.por_active ? por_provenance : "";
  return std::move(result);
}

}  // namespace scv
