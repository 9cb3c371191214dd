// R6: processor-symmetry commutation check.
//
// A protocol declaring processor_symmetric() promises that renaming
// processors by any permutation π is an automorphism of its transition
// system: π maps the initial state to itself (enforced structurally — the
// initial state must canonicalize to itself; here we check it like any
// sampled state), enabled transitions to enabled transitions, and commutes
// with apply.  The model checker's orbit canonicalization is sound exactly
// under that promise (DESIGN.md §12), so a wrong declaration would silently
// merge non-equivalent states.  This pass samples the promise instead of
// trusting it.
//
// Only transpositions are tested: they generate S_p, and permute_procs /
// permute_transition act pointwise on processor indices, so a hook that is
// correct on every transposition and built from per-processor moves is
// correct on their compositions.  (The chunk-moving helpers protocols build
// on apply arbitrary permutations uniformly; a hook special-casing specific
// permutations would be pathological beyond what sampling can defend
// against.)
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/internal.hpp"
#include "analysis/lint.hpp"
#include "protocol/protocol.hpp"
#include "util/byte_io.hpp"

namespace scv {

/// Serializes a transition into a comparable byte string.  Copy entries are
/// sorted first: they apply simultaneously, so enumeration order is not
/// semantically meaningful and may legitimately differ between a state and
/// its permuted image.
void analysis::encode_transition_into(const Transition& t, std::string& out) {
  out.clear();
  out.push_back(static_cast<char>(t.action.kind));
  out.push_back(static_cast<char>(t.action.op.kind));
  out.push_back(static_cast<char>(t.action.op.proc));
  out.push_back(static_cast<char>(t.action.op.block));
  out.push_back(static_cast<char>(t.action.op.value));
  out.push_back(static_cast<char>(t.action.internal_id));
  out.push_back(static_cast<char>(t.action.arg0));
  out.push_back(static_cast<char>(t.action.arg1));
  out.push_back(static_cast<char>(t.loc));
  out.push_back(static_cast<char>(t.serialize_loc & 0xff));
  out.push_back(static_cast<char>((t.serialize_loc >> 8) & 0xff));
  // Copy entries fit the transition's inline capacity, so sorting a stack
  // array keeps the encoder allocation-free (it runs once per skeleton
  // edge — ~1.3M times for directory p2).
  std::array<std::pair<LocId, LocId>, 12> copies;
  const std::size_t ncopies = t.copies.size();
  for (std::size_t i = 0; i < ncopies; ++i) {
    copies[i] = {t.copies[i].dst, t.copies[i].src};
  }
  std::sort(copies.begin(), copies.begin() + ncopies);
  for (std::size_t i = 0; i < ncopies; ++i) {
    out.push_back(static_cast<char>(copies[i].first));
    out.push_back(static_cast<char>(copies[i].second));
  }
}

std::string analysis::encode_transition(const Transition& t) {
  std::string out;
  encode_transition_into(t, out);
  return out;
}

namespace {

using analysis::encode_transition;

/// One transposition's worth of checks on one sampled state.  Returns an
/// empty string or the first violation.
std::string check_state_under(const Protocol& proto,
                              const std::vector<std::uint8_t>& state,
                              const std::vector<Transition>& enabled,
                              const ProcPerm& tau,
                              std::size_t* transitions_checked) {
  std::vector<std::uint8_t> image(state);
  proto.permute_procs(image, tau);

  // Enabled-set equivariance: τ maps the enabled set of s onto the enabled
  // set of τ(s), as multisets of serialized transitions.
  std::vector<Transition> image_enabled;
  proto.enumerate(image, image_enabled);
  if (image_enabled.size() != enabled.size()) {
    return "enabled-transition count changes under renaming (" +
           std::to_string(enabled.size()) + " vs " +
           std::to_string(image_enabled.size()) + ")";
  }
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;
  lhs.reserve(enabled.size());
  rhs.reserve(enabled.size());
  for (const Transition& t : enabled) {
    lhs.push_back(encode_transition(proto.permute_transition(t, tau)));
  }
  for (const Transition& t : image_enabled) {
    rhs.push_back(encode_transition(t));
  }
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  if (lhs != rhs) {
    return "renamed enabled set does not match the renamed state's enabled "
           "set";
  }

  // Step commutation: apply(τ(s), τ(t)) == τ(apply(s, t)).
  std::vector<std::uint8_t> via_state;
  std::vector<std::uint8_t> via_trans;
  for (const Transition& t : enabled) {
    via_state = state;
    proto.apply(via_state, t);
    proto.permute_procs(via_state, tau);
    via_trans = image;
    proto.apply(via_trans, proto.permute_transition(t, tau));
    if (via_state != via_trans) {
      return "apply does not commute with renaming on '" +
             proto.action_name(t.action) + "'";
    }
    ++*transitions_checked;
  }

  // Signature equivariance: sig(τ(s), τ(p)) == sig(s, p).
  ByteWriter sig_a;
  ByteWriter sig_b;
  for (std::size_t p = 0; p < proto.params().procs; ++p) {
    sig_a.clear();
    sig_b.clear();
    proto.proc_signature(state, static_cast<ProcId>(p), sig_a);
    proto.proc_signature(image, tau(static_cast<ProcId>(p)), sig_b);
    const auto da = sig_a.data();
    const auto db = sig_b.data();
    if (da.size() != db.size() ||
        !std::equal(da.begin(), da.end(), db.begin())) {
      return "proc_signature is not renaming-equivariant for processor " +
             std::to_string(p);
    }
  }
  return {};
}

/// permute_loc must be a bijection on the location alphabet under every
/// transposition; state-independent, so checked once per protocol.
/// Returns an empty string or the first violation.
std::string permute_loc_bijection_failure(const Protocol& proto) {
  const std::size_t procs = proto.params().procs;
  const std::size_t locations = proto.params().locations;
  for (std::size_t a = 0; a + 1 < procs; ++a) {
    for (std::size_t b = a + 1; b < procs; ++b) {
      const ProcPerm tau = ProcPerm::transposition(
          procs, static_cast<ProcId>(a), static_cast<ProcId>(b));
      std::vector<bool> hit(locations, false);
      for (std::size_t l = 0; l < locations; ++l) {
        const LocId img = proto.permute_loc(static_cast<LocId>(l), tau);
        if (img >= locations || hit[img]) {
          return "permute_loc is not a bijection under the (" +
                 std::to_string(a) + " " + std::to_string(b) +
                 ") transposition (location " + std::to_string(l) +
                 " maps to " + std::to_string(img) + ")";
        }
        hit[img] = true;
      }
    }
  }
  return {};
}

}  // namespace

SymmetryCheckResult check_processor_symmetry(const Protocol& proto) {
  // Protocol states to examine along the walk, and the walk's length bound.
  constexpr std::size_t kSamples = 48;
  constexpr std::size_t kMaxSteps = 192;

  SymmetryCheckResult res;
  res.declared = proto.processor_symmetric();
  const std::size_t procs = proto.params().procs;
  res.applicable = res.declared && procs >= 2 && procs <= ProcPerm::kMax;
  if (!res.applicable) return res;

  res.detail = permute_loc_bijection_failure(proto);
  if (!res.detail.empty()) {
    res.ok = false;
    return res;
  }

  // Deterministic sample walk over protocol states; restart on dead ends.
  std::vector<std::uint8_t> cur(proto.state_size());
  proto.initial_state(cur);
  std::vector<Transition> enabled;
  for (std::size_t step = 0;
       step < kMaxSteps && res.states_checked < kSamples;
       ++step) {
    enabled.clear();
    proto.enumerate(cur, enabled);
    ++res.states_checked;
    for (std::size_t a = 0; a + 1 < procs; ++a) {
      for (std::size_t b = a + 1; b < procs; ++b) {
        const ProcPerm tau = ProcPerm::transposition(
            procs, static_cast<ProcId>(a), static_cast<ProcId>(b));
        std::string bad = check_state_under(proto, cur, enabled, tau,
                                            &res.transitions_checked);
        if (!bad.empty()) {
          res.ok = false;
          res.detail = bad + " [transposition (" + std::to_string(a) + " " +
                       std::to_string(b) + "), sample state " +
                       std::to_string(res.states_checked) + "]";
          return res;
        }
      }
    }
    if (enabled.empty()) {
      proto.initial_state(cur);
      continue;
    }
    // Deterministic pseudo-random successor choice: diversify the walk
    // without Date/rand so repeated runs check identical states.
    proto.apply(cur, enabled[(step * 2654435761u + 7) % enabled.size()]);
  }
  return res;
}

namespace analysis {

void check_symmetry(LintContext& ctx) {
  if (!ctx.rule_selected(LintRule::R6_ProcessorSymmetry)) return;
  const Protocol& proto = *ctx.protocol;
  RuleCoverage& cov = ctx.coverage(LintRule::R6_ProcessorSymmetry);
  cov.ran = true;
  if (!proto.processor_symmetric()) {
    cov.definite = true;  // vacuous: nothing declared, nothing to refute
    return;
  }
  const std::size_t procs = proto.params().procs;
  if (procs < 2) {
    cov.definite = true;
    return;
  }
  if (procs > ProcPerm::kMax) {
    cov.definite = true;
    ctx.add(LintRule::R6_ProcessorSymmetry, LintSeverity::Warning,
            "protocol declares processor symmetry with " +
                std::to_string(procs) + " processors, above ProcPerm::kMax=" +
                std::to_string(ProcPerm::kMax) +
                "; orbit canonicalization will not engage",
            "procs-above-kmax");
    return;
  }

  if (const std::string bad = permute_loc_bijection_failure(proto);
      !bad.empty()) {
    ctx.add(LintRule::R6_ProcessorSymmetry, LintSeverity::Warning,
            "declared processor symmetry fails the commutation check: " +
                bad +
                "; the model checker falls back to identity "
                "canonicalization",
            "commutation");
    return;
  }

  // Commutation checks on a stride across the whole skeleton rather than a
  // single walk path: the skeleton's BFS order spreads the sample over
  // every depth, where a walk would serialize into one trajectory.  The
  // obligation quantifies over permutations, so the verdict stays sampled
  // evidence even on a complete skeleton (the product-level self-check
  // backs it up).
  const ProtocolSkeleton& sk = *ctx.skeleton;
  constexpr std::size_t kSamples = 48;
  const std::size_t n = sk.num_states();
  const std::size_t stride = n > kSamples ? n / kSamples : 1;
  std::vector<std::uint8_t> cur(sk.state_bytes);
  std::vector<Transition> enabled;
  for (std::size_t s = 0; s < n; s += stride) {
    const auto bytes = sk.state(s);
    cur.assign(bytes.begin(), bytes.end());
    enabled.clear();
    proto.enumerate(cur, enabled);
    ++cov.states;
    for (std::size_t a = 0; a + 1 < procs; ++a) {
      for (std::size_t b = a + 1; b < procs; ++b) {
        const ProcPerm tau = ProcPerm::transposition(
            procs, static_cast<ProcId>(a), static_cast<ProcId>(b));
        std::string bad =
            check_state_under(proto, cur, enabled, tau, &cov.checked);
        if (!bad.empty()) {
          ctx.add(
              LintRule::R6_ProcessorSymmetry, LintSeverity::Warning,
              "declared processor symmetry fails the commutation check: " +
                  bad + " [transposition (" + std::to_string(a) + " " +
                  std::to_string(b) + "), skeleton state " +
                  std::to_string(s) +
                  "]; the model checker falls back to identity "
                  "canonicalization",
              "commutation");
          return;
        }
      }
    }
  }
}

}  // namespace analysis
}  // namespace scv
