#include "mc/product.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace scv {

namespace {
/// One key-part reuse in this many is recomputed and compared under
/// SCV_ASSERT: a live check of the change certificates at the cadence of
/// the engine's sampled ample cross-validation.
constexpr std::uint64_t kReuseCheckEvery = 4096;
}  // namespace

Product::Product(const Protocol& protocol, const ObserverConfig& config,
                 bool with_observer)
    : protocol_(&protocol), state_(protocol.state_size()) {
  protocol.initial_state(state_);
  if (with_observer) {
    obs_.emplace(protocol, config);
    const auto& pr = protocol.params();
    chk_.emplace(ScCheckerConfig{obs_->bandwidth(), pr.procs, pr.blocks,
                                 pr.values, config.model});
  }
}

void Product::add_sink(SymbolSink* sink) {
  SCV_EXPECTS(sink != nullptr);
  sinks_.push_back(sink);
}

bool Product::transition_visible(const Transition& t) const {
  if (t.action.is_memory_op()) return true;
  if (t.serialize_loc >= 0) return true;
  if (obs_ && obs_->config().location_mirrored && !t.copies.empty()) {
    return true;
  }
  return false;
}

StepOutcome Product::step(const Transition& t, std::vector<Symbol>& symbols,
                          std::string_view action) {
  state_touched_ = protocol_->touched_procs(state_, t);  // of the pre-state
  protocol_->apply(state_, t);
  if (!obs_) return StepOutcome::Ok;
  // The checker takes a stream of symbols per step, so the product owns the
  // reset of its touched mask (Observer::step resets its own).
  chk_->reset_touched();
  symbols.clear();
  const ObserverStatus st = obs_->step(t, state_, symbols);
  if (st == ObserverStatus::BandwidthExceeded) return StepOutcome::Bound;
  if (st == ObserverStatus::TrackingInconsistent) {
    return StepOutcome::Tracking;
  }
  checker_fed_ = !symbols.empty();
  const ScChecker::Status verdict = chk_->feed_batch(symbols);
  for (SymbolSink* sink : sinks_) {
    sink->begin_step(action);
    for (const Symbol& sym : symbols) sink->on_symbol(sym);
    sink->end_step();
  }
  return verdict == ScChecker::Status::Reject ? StepOutcome::Reject
                                              : StepOutcome::Ok;
}

std::span<const std::uint8_t> Product::key(KeyScratch& ks) const {
  ks.w.clear();
  ks.w.bytes(state_);  // the protocol's encoding is already canonical
  if (obs_) {
    obs_->serialize(ks.w, &ks.id_canon);
    chk_->serialize_canonical(ks.w, ks.id_canon);
  }
  return ks.w.data();
}

void Product::snapshot(ByteWriter& w) const {
  w.bytes(state_);
  if (obs_) {
    obs_->snapshot(w);
    chk_->snapshot(w);
  }
}

void Product::restore(ByteReader& r) {
  const auto v = r.view(state_.size());
  std::copy(v.begin(), v.end(), state_.begin());
  state_touched_ = ~0u;
  checker_fed_ = true;
  if (obs_) {
    obs_->restore(r);
    chk_->restore(r);
  }
}

void Product::assign_from(const Product& other) {
  SCV_EXPECTS(with_observer() == other.with_observer());
  state_ = other.state_;
  state_touched_ = ~0u;
  checker_fed_ = true;
  if (obs_) {
    *obs_ = *other.obs_;
    *chk_ = *other.chk_;
  }
}

void Product::permute_procs(const ProcPerm& perm) {
  if (perm.is_identity()) return;
  protocol_->permute_procs(state_, perm);
  state_touched_ = ~0u;
  checker_fed_ = true;
  if (obs_) {
    obs_->permute_procs(perm);
    chk_->permute_procs(perm);
  }
}

void Product::proc_signature(ProcId p, ByteWriter& w) const {
  protocol_->proc_signature(state_, p, w);
  if (obs_) {
    obs_->proc_signature(p, w);
    chk_->proc_signature(p, w);
  }
}

std::uint32_t Product::touched_procs() const {
  if (!obs_) return state_touched_;
  return state_touched_ | obs_->touched_procs() | chk_->touched_procs();
}

std::string Product::failure_reason(StepOutcome outcome) const {
  switch (outcome) {
    case StepOutcome::Reject:
      return chk_->reject_reason();
    case StepOutcome::Bound:
    case StepOutcome::Tracking:
      return obs_->error();
    case StepOutcome::Ok:
      break;
  }
  return {};
}

ProcCanonicalizer::ProcCanonicalizer(const Protocol& protocol, bool enable)
    : procs_(protocol.params().procs) {
  active_ = enable && protocol.processor_symmetric() && procs_ >= 2 &&
            procs_ <= ProcPerm::kMax;
  if (active_) {
    for (std::size_t i = 2; i <= procs_; ++i) factorial_ *= i;
  }
}

std::uint64_t ProcCanonicalizer::canonicalize_key(Product& p, KeyScratch& ks,
                                                  ProcPerm* applied,
                                                  std::uint32_t dirty_mask) {
  return canonicalize(p, ks, applied, dirty_mask, {});
}

std::uint64_t ProcCanonicalizer::canonicalize_successor(Product& p,
                                                        KeyScratch& ks) {
  // Read the certificates first: permuting `p` poisons them.
  Unchanged same;
  if (p.with_observer()) {
    same = {!p.observer().changed(), !p.checker_fed()};
  }
  return canonicalize(p, ks, nullptr, p.touched_procs(), same);
}

std::uint64_t ProcCanonicalizer::canonicalize(Product& p, KeyScratch& ks,
                                              ProcPerm* applied,
                                              std::uint32_t dirty_mask,
                                              Unchanged same) {
  const ProcPerm identity =
      ProcPerm::identity(std::min(procs_, ProcPerm::kMax));
  if (applied != nullptr) *applied = identity;
  if (!active_) {
    write_key(p, p.protocol_state(), ks, nullptr, identity, same);
    return 1;
  }
  const SortedOrder order = sorted_order(p, dirty_mask);
  if (order.has_tie) return search_ties(p, ks, applied, order, same);
  // Distinct signatures: the sorting permutation is the only candidate,
  // and the stabilizer is trivial (a stabilizing permutation would have
  // to map equal signatures onto each other), so the orbit is full.
  const ProcPerm pi = order.perm(procs_);
  p.permute_procs(pi);
  if (applied != nullptr) *applied = pi;
  write_key(p, p.protocol_state(), ks, nullptr, pi, same);
  return factorial_;
}

void ProcCanonicalizer::write_key(const Product& p,
                                  std::span<const std::uint8_t> state,
                                  KeyScratch& ks, const ProcPerm* perm,
                                  const ProcPerm& pi, Unchanged same) {
  ks.w.clear();
  ks.w.bytes(state);  // the protocol's encoding is already canonical
  if (!p.with_observer()) return;
  // An unchanged observer serializes as the base does under `pi`, and an
  // unfed checker under the same id_canon as the base's does too.
  KeyParts* c = same.observer || same.checker ? key_parts(pi) : nullptr;
  const auto sampled = [this] { return reuses_++ % kReuseCheckEvery == 0; };
  const Observer& obs = p.observer();
  std::span<const GraphId> ids;
  if (c != nullptr && same.observer && c->has_obs) {
    ks.w.bytes(c->obs);
    ids = c->obs_ids;
    if (sampled()) {
      recheck_.w.clear();
      obs.serialize(recheck_.w, &recheck_.id_canon, perm);
      SCV_ASSERT(recheck_.w.data() == c->obs &&
                 recheck_.id_canon == c->obs_ids);
    }
  } else {
    const std::size_t at = ks.w.data().size();
    obs.serialize(ks.w, &ks.id_canon, perm);
    ids = ks.id_canon;
    if (c != nullptr && same.observer) {
      c->obs.assign(ks.w.data().begin() + static_cast<std::ptrdiff_t>(at),
                    ks.w.data().end());
      c->obs_ids = ks.id_canon;
      c->has_obs = true;
    }
  }
  const ScChecker& chk = p.checker();
  if (c != nullptr && same.checker && c->has_chk &&
      std::ranges::equal(ids, c->chk_ids)) {
    ks.w.bytes(c->chk);
    if (sampled()) {
      recheck_.w.clear();
      chk.serialize_canonical(recheck_.w, ids, perm);
      SCV_ASSERT(recheck_.w.data() == c->chk);
    }
    return;
  }
  const std::size_t at = ks.w.data().size();
  chk.serialize_canonical(ks.w, ids, perm);
  if (c != nullptr && same.checker && !c->has_chk) {
    c->chk.assign(ks.w.data().begin() + static_cast<std::ptrdiff_t>(at),
                  ks.w.data().end());
    c->chk_ids.assign(ids.begin(), ids.end());
    c->has_chk = true;
  }
}

ProcCanonicalizer::KeyParts* ProcCanonicalizer::key_parts(
    const ProcPerm& pi) {
  for (std::size_t i = 0; i < parts_used_; ++i) {
    if (parts_[i].pi == pi) return &parts_[i];
  }
  if (parts_used_ == kKeyPartSlots) return nullptr;
  KeyParts& c = parts_[parts_used_++];
  c.pi = pi;
  c.has_obs = false;
  c.has_chk = false;
  return &c;
}

ProcCanonicalizer::SortedOrder ProcCanonicalizer::sorted_order(
    const Product& p, std::uint32_t dirty_mask) {
  // An all-clean successor (empty dirty mask) has byte-identical signatures
  // to the base state, hence the same sorted order and tie groups as any
  // other all-clean successor in this epoch; once one has been sorted, the
  // rest skip the signature fill, sort, and group scan entirely.
  const bool all_clean = (dirty_mask & ((1u << procs_) - 1)) == 0;
  if (all_clean && order_valid_) return cached_order_;

  // Per-processor signatures, concatenated; sig_off_[q]..sig_off_[q+1] is
  // processor q's slice.  A clean dirty bit certifies the signature equals
  // its value in the base state of the current begin_base() epoch, so the
  // cached bytes stand in for a recompute; the first clean sighting in an
  // epoch fills the cache.  Dirty processors always recompute and never
  // touch the cache (their bytes are not the base's).
  sig_.clear();
  sig_off_[0] = 0;
  for (std::size_t q = 0; q < procs_; ++q) {
    const std::uint32_t bit = 1u << q;
    const bool clean = (dirty_mask & bit) == 0;
    if (clean && (base_valid_ & bit) != 0) {
      sig_.bytes(base_sig_[q]);
    } else {
      const std::size_t before = sig_.data().size();
      p.proc_signature(static_cast<ProcId>(q), sig_);
      if (clean) {
        const auto& buf = sig_.data();
        base_sig_[q].assign(buf.begin() + static_cast<std::ptrdiff_t>(before),
                            buf.end());
        base_valid_ |= bit;
      }
    }
    sig_off_[q + 1] = static_cast<std::uint32_t>(sig_.data().size());
  }
  const std::span<const std::uint8_t> sig = sig_.data();
  const auto sig_of = [&](std::size_t q) {
    return sig.subspan(sig_off_[q], sig_off_[q + 1] - sig_off_[q]);
  };
  const auto sig_cmp = [&](std::size_t a, std::size_t b) {
    const auto sa = sig_of(a);
    const auto sb = sig_of(b);
    const std::size_t n = std::min(sa.size(), sb.size());
    const int c = n == 0 ? 0 : std::memcmp(sa.data(), sb.data(), n);
    if (c != 0) return c;
    return sa.size() < sb.size() ? -1 : (sa.size() > sb.size() ? 1 : 0);
  };

  // Stable insertion sort (strict-< shifts only) keeps tied processors in
  // ascending index, which is exactly the first arrangement
  // next_permutation's odometer expects; at <= kMax elements it beats
  // std::stable_sort's dispatch overhead in the hot loop.
  SortedOrder o;
  for (std::size_t i = 0; i < procs_; ++i) {
    o.pos[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t i = 1; i < procs_; ++i) {
    const std::uint8_t v = o.pos[i];
    std::size_t j = i;
    while (j > 0 && sig_cmp(v, o.pos[j - 1]) < 0) {
      o.pos[j] = o.pos[j - 1];
      --j;
    }
    o.pos[j] = v;
  }
  // Tie groups: maximal runs of equal signatures in the sorted order.
  for (std::size_t i = 0; i < procs_;) {
    std::size_t j = i + 1;
    while (j < procs_ && sig_cmp(o.pos[i], o.pos[j]) == 0) ++j;
    o.gstart[o.ngroups] = static_cast<std::uint8_t>(i);
    o.gend[o.ngroups] = static_cast<std::uint8_t>(j);
    ++o.ngroups;
    if (j - i > 1) o.has_tie = true;
    i = j;
  }
  if (all_clean) {
    cached_order_ = o;
    order_valid_ = true;
  }
  return o;
}

std::uint64_t ProcCanonicalizer::search_ties(Product& p, KeyScratch& ks,
                                             ProcPerm* applied,
                                             SortedOrder order,
                                             Unchanged same) {
  // Enumerate every sorting permutation (each tie group's slots filled by
  // any arrangement of its members) and take the least serialized key.
  //
  // `first` (not best_.empty()) marks the first candidate: a product can
  // legitimately serialize to zero bytes (e.g. a protocol-only product over
  // an empty state vector), and treating the empty key as "no best yet"
  // would re-enter the hits=1 branch every iteration, corrupting the
  // stabilizer count and thus the reported orbit size.
  ProcPerm best_perm = ProcPerm::identity(procs_);
  best_.clear();
  std::uint64_t hits = 0;
  bool first = true;
  const auto consider = [&](std::span<const std::uint8_t> key,
                            const ProcPerm& pi) {
    const std::size_t n = std::min(best_.size(), key.size());
    // memcmp's pointers must be non-null even at n == 0 (empty keys).
    const int c = first    ? -1
                  : n == 0 ? 0
                           : std::memcmp(key.data(), best_.data(), n);
    const bool less = c < 0 || (c == 0 && key.size() < best_.size());
    if (less) {
      best_.assign(key.begin(), key.end());
      best_perm = pi;
      hits = 1;
      first = false;
    } else if (c == 0 && key.size() == best_.size()) {
      ++hits;
    }
  };
  // Odometer over the tie groups, rightmost fastest; next_permutation
  // wraps a group back to ascending order when it carries.  Returns false
  // when every group has carried (enumeration complete).
  const auto advance = [&]() {
    std::size_t g = order.ngroups;
    while (g > 0) {
      --g;
      if (std::next_permutation(order.pos.begin() + order.gstart[g],
                                order.pos.begin() + order.gend[g])) {
        return true;
      }
    }
    return false;
  };

  // Delta re-keying (DESIGN.md §13): `p` is never mutated inside the loop.
  // The protocol slice — the only part whose permuted form is not cheap to
  // read in place — is kept in a scratch copy and re-permuted by the delta
  // between consecutive candidates; the observer and checker serialize
  // *under* the candidate permutation, reading their anchors through its
  // inverse, which is byte-identical to permute-then-serialize because
  // permute_procs leaves handles and slots untouched.
  perm_state_.assign(p.protocol_state().begin(), p.protocol_state().end());
  ProcPerm prev = ProcPerm::identity(procs_);
  do {
    const ProcPerm pi = order.perm(procs_);
    p.protocol().permute_procs(perm_state_, prev.inverse().then(pi));
    prev = pi;
    write_key(p, perm_state_, trial_, &pi, pi, same);
    consider(trial_.w.data(), pi);
  } while (advance());
  p.permute_procs(best_perm);

  if (applied != nullptr) *applied = best_perm;
  ks.w.clear();
  ks.w.bytes(best_);
  // Minimum-achieving candidates form a coset of the stabilizer, so `hits`
  // is the stabilizer order and the orbit size is exact.
  return factorial_ / hits;
}

}  // namespace scv
