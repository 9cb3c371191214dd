#include "mc/por.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

namespace scv {
namespace {

/// Full-identity transition comparison.  Action classes are not enough:
/// protocols emit distinct transitions with identical actions that differ
/// only in their copy labels (GetSharedToy's Get-Shared picks both a source
/// and a destination slot), so independence checks must match transitions
/// by every observable field.
bool same_transition(const Transition& a, const Transition& b) {
  if (a.loc != b.loc || a.serialize_loc != b.serialize_loc) return false;
  if (a.copies.size() != b.copies.size()) return false;
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    if (a.copies[i].dst != b.copies[i].dst ||
        a.copies[i].src != b.copies[i].src) {
      return false;
    }
  }
  const Action& x = a.action;
  const Action& y = b.action;
  if (x.kind != y.kind) return false;
  if (x.is_memory_op()) {
    return x.op.proc == y.op.proc && x.op.block == y.op.block &&
           x.op.value == y.op.value;
  }
  return x.internal_id == y.internal_id && x.arg0 == y.arg0 &&
         x.arg1 == y.arg1;
}

const Transition* find_transition(const std::vector<Transition>& trans,
                                  const Transition& t) {
  for (const Transition& c : trans) {
    if (same_transition(c, t)) return &c;
  }
  return nullptr;
}

}  // namespace

AmpleSelector::AmpleSelector(const Protocol& protocol,
                             const PorOracle& oracle, bool enable)
    : oracle_(&oracle),
      active_(enable && oracle.por_enabled() &&
              protocol.params().procs <= 32 &&
              protocol.params().blocks <= 32) {}

bool AmpleSelector::select(const Product& product,
                           const std::vector<Transition>& trans,
                           std::vector<std::uint32_t>& out) {
  out.clear();
  const std::size_t n = trans.size();
  if (!active_ || n <= 1) return false;

  // Pass 1: footprints and C2 candidacy.  A candidate is invisible (by
  // footprint and by the product's symbol-emission test) and local to a
  // single processor — multi-processor footprints (bus snoops, directory
  // home actions) can never anchor an ample set.
  fps_.clear();
  fps_.reserve(n);
  candidate_.assign(n, 0);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    fps_.push_back(oracle_->footprint(trans[i]));
    const PorFootprint& fp = fps_.back();
    if (!fp.visible && std::has_single_bit(fp.procs) &&
        !product.transition_visible(trans[i])) {
      candidate_[i] = 1;
      any = true;
    }
  }
  if (!any) return false;

  // Pass 2: group candidates by (processor, block mask).  Grouping keeps
  // mutually dependent candidates (e.g. ReqS and ReqX of the same cache
  // entry) together, which C1 requires.
  ngroups_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (candidate_[i] == 0) continue;
    const auto proc =
        static_cast<std::uint8_t>(std::countr_zero(fps_[i].procs));
    const std::uint32_t blocks = fps_[i].blocks;
    std::size_t g = 0;
    for (; g < ngroups_; ++g) {
      if (groups_[g].proc == proc && groups_[g].blocks == blocks) break;
    }
    if (g == ngroups_) {
      if (ngroups_ == groups_.size()) groups_.emplace_back();
      groups_[g].proc = proc;
      groups_[g].blocks = blocks;
      groups_[g].members.clear();
      ++ngroups_;
    }
    groups_[g].members.push_back(i);
  }

  // Pass 3: validate each group against C1's in-state half — every
  // co-enabled non-member must be independent (both directions; the
  // relation is required to be symmetric, but a buggy override should
  // degrade to full expansion, not unsoundness) of every member — and keep
  // the deterministic minimum over (|A|, proc, blocks).
  std::size_t best = ngroups_;
  for (std::size_t g = 0; g < ngroups_; ++g) {
    const Group& grp = groups_[g];
    if (grp.members.size() >= n) continue;  // no reduction
    bool valid = true;
    for (std::size_t j = 0; j < n && valid; ++j) {
      if (candidate_[j] != 0 && fps_[j].procs == (1u << grp.proc) &&
          fps_[j].blocks == grp.blocks) {
        continue;  // member of this group
      }
      for (const std::uint32_t i : grp.members) {
        if (!oracle_->independent(trans[i], trans[j]) ||
            !oracle_->independent(trans[j], trans[i])) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;
    if (best == ngroups_) {
      best = g;
      continue;
    }
    const Group& b = groups_[best];
    const auto key = [](const Group& x) {
      return std::tuple(x.members.size(), x.proc, x.blocks);
    };
    if (key(grp) < key(b)) best = g;
  }
  if (best == ngroups_) return false;
  out = groups_[best].members;  // ascending by construction
  return true;
}

bool independence_commutes(const Protocol& proto, ProcCanonicalizer& canon,
                           const Product& cur, const Transition& t,
                           const Transition& u, CommuteScratch& s,
                           std::string& detail) {
  const auto pair_name = [&] {
    return "('" + proto.action_name(t.action) + "', '" +
           proto.action_name(u.action) + "')";
  };
  s.a.assign_from(cur);
  if (s.a.step(t, s.symbols) != StepOutcome::Ok) return true;  // vacuous
  s.trans.clear();
  s.a.enumerate(s.trans);
  const Transition* u_after = find_transition(s.trans, u);
  if (u_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the first disables the second";
    return false;
  }
  s.b.assign_from(s.a);
  const StepOutcome o_tu = s.b.step(*u_after, s.symbols);
  if (o_tu == StepOutcome::Ok) canon.canonicalize_key(s.b, s.ka);
  s.b.assign_from(cur);
  const StepOutcome o_u = s.b.step(u, s.symbols);
  if (o_u != o_tu) {
    detail = "declared-independent pair " + pair_name() +
             ": step outcome differs between orders";
    return false;
  }
  if (o_u != StepOutcome::Ok) return true;  // both orders fail identically
  s.trans.clear();
  s.b.enumerate(s.trans);
  const Transition* t_after = find_transition(s.trans, t);
  if (t_after == nullptr) {
    detail = "declared-independent pair " + pair_name() +
             ": the second disables the first";
    return false;
  }
  if (s.b.step(*t_after, s.symbols) != StepOutcome::Ok) {
    detail = "declared-independent pair " + pair_name() +
             ": outcome differs on the deferred first transition";
    return false;
  }
  canon.canonicalize_key(s.b, s.kb);
  if (!std::ranges::equal(s.ka.w.data(), s.kb.w.data())) {
    detail = "declared-independent pair " + pair_name() +
             ": the two orders reach different product states";
    return false;
  }
  return true;
}

}  // namespace scv
